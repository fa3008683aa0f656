(** The network→flow compiler shared by every transformation.

    All of the paper's transformations start the same way: scan the
    MRSIN's links and emit a flow graph with a stable link↔arc
    correspondence — source and sink, one node per switchbox, one node
    per participating processor and resource, one unit arc per free link
    (steps T1–T4 of Section III-B). This module is that step, written
    once. {!Transform1} (max flow), {!Transform2} (min-cost with bypass),
    {!Hetero} (the multicommodity LP view) and the online engine's
    persistent graph ({!Rsin_engine.Incremental}) are all thin
    parameterizations of it: arc costs and the bypass node for
    Transformation 2, endpoint masks per commodity for the heterogeneous
    case, full-topology capacity toggles for the engine.

    Node layout is dense and fixed: source, sink, optional bypass, then
    boxes, processors, resources, in that order. Arc layout is fixed
    too: per request the [s→p] arc (followed by its bypass escape when
    compiling with costs), the bypass→sink arc, the [r→t] arcs, then one
    arc per surviving link in link-id order — so equal inputs compile to
    identical graphs, which the differential and property tests rely
    on.

    The compiled representation is the type parameter: a snapshot
    compile yields a [Rsin_flow.Graph.t t] for the from-scratch solvers,
    and {!compile_full} emits the engine's [Rsin_flow.Csr.t t] directly,
    with the same node and arc numbering, so every correspondence below
    reads the same in both. *)

type 'g t
(** A compiled flow graph of representation ['g] together with the
    MRSIN↔graph correspondence. *)

(** {1 Compilation} *)

val compile :
  ?bypass_cost:int ->
  Rsin_topology.Network.t ->
  requests:(int * int) list ->
  free:(int * int) list ->
  Rsin_flow.Graph.t t
(** [compile net ~requests ~free] builds the snapshot flow graph:
    [requests] are [(processor, s-arc cost)] pairs, [free] are
    [(resource port, t-arc cost)] pairs; occupied links, links masked by
    a down element ([Network.usable]), idle processors and busy
    resources contribute nothing (step T4 — dropping arcs is exactly how
    faults preserve the optimality theorems on the surviving
    subnetwork). With
    [bypass_cost], a bypass node absorbs unallocatable requests at that
    cost per traversed bypass arc (Transformation 2's L rule); without
    it no bypass node exists and all costs are typically 0
    (Transformation 1). Duplicate processors or resources and
    out-of-range indices are rejected with [Invalid_argument]. The
    network is referenced, not copied. *)

val compile_full : Rsin_topology.Network.t -> Rsin_flow.Csr.t t
(** [compile_full net] builds the persistent full-topology network of
    the online engine, straight into {!Rsin_flow.Csr} arrays (no
    {!Rsin_flow.Graph} is built): {e every} processor, box, resource and
    link gets its node/arc once, so link [l]'s arc sits at a fixed
    offset. Endpoint arcs start with capacity 0 (switched off); link
    arcs carry capacity 1 when free and usable, 0 when occupied or
    masked by a down element. Scheduling state is then expressed purely
    through O(1) {!Rsin_flow.Csr.set_capacity} toggles — the network
    is never rebuilt. *)

(** {1 Accessors} *)

val graph : 'g t -> 'g

val source : 'g t -> Rsin_flow.Graph.node
val sink : 'g t -> Rsin_flow.Graph.node

val bypass : 'g t -> Rsin_flow.Graph.node option
(** The bypass node, when compiled with [bypass_cost]. *)

val network : 'g t -> Rsin_topology.Network.t
(** The network the graph was compiled from (not a copy). *)

val proc_node : 'g t -> int -> Rsin_flow.Graph.node option
(** Graph node of a processor, [None] if it is not in the graph. *)

val res_node : 'g t -> int -> Rsin_flow.Graph.node option
val box_node : 'g t -> int -> Rsin_flow.Graph.node

val proc_of_node : 'g t -> Rsin_flow.Graph.node -> int option
(** Inverse of {!proc_node}, [None] for non-processor nodes. *)

val res_of_node : 'g t -> Rsin_flow.Graph.node -> int option

val sp_arc : 'g t -> int -> Rsin_flow.Graph.arc option
(** The [s→p] arc of a processor, [None] if it is not in the graph.
    Always present after {!compile_full}. *)

val rt_arc : 'g t -> int -> Rsin_flow.Graph.arc option

val arc_of_link : 'g t -> int -> Rsin_flow.Graph.arc option
(** The graph arc compiled from a network link, [None] when the link was
    dropped (occupied, or an endpoint absent). Inverse of
    {!link_of_arc} on its domain: [link_of_arc (arc_of_link l) = Some l]
    for every surviving link [l]. *)

val link_of_arc : 'g t -> Rsin_flow.Graph.arc -> int option
(** The network link an arc was compiled from, [None] for endpoint and
    bypass arcs. *)

val link_arcs : 'g t -> (Rsin_flow.Graph.arc * int) array
(** All [(arc, link)] pairs, in link-id scan order — the structural view
    the heterogeneous LP shares capacity over. Built on each call. *)

val size : 'g t -> int * int
(** [(nodes, forward arcs)] of the compiled graph — the construction
    work a rebuild-per-cycle scheduler pays every cycle. *)

(** {1 Extraction} *)

type extraction = {
  mapping : (int * int) list;
      (** allocated (processor, resource) pairs, in path order *)
  circuits : (int * int list) list;
      (** per allocated processor, the network links of its circuit *)
  bypassed : int list;
      (** processors whose flow went through the bypass node *)
  allocation_cost : int;
      (** total arc cost of the allocated (non-bypass) paths *)
}

val extract : Rsin_flow.Graph.t t -> extraction
(** Decomposes the graph's current integral flow into unit s–t paths and
    translates them back to network terms. Paths through the bypass node
    are reported in [bypassed] rather than allocated. *)

val cut_members :
  Rsin_flow.Graph.t t ->
  Rsin_flow.Graph.arc list ->
  [ `Link of int | `Proc of int | `Res of int ] list
(** Translates a cut (e.g. {!Rsin_flow.Edmonds_karp.min_cut}) back to
    network terms: saturated links, or requests/resources whose own
    endpoint arc is the binding constraint. *)
