(** Flat compressed-sparse-row flow core — the zero-allocation hot path.

    {!Graph} is the flexible builder representation: growable vectors, a
    first/next adjacency list, one bounds-checked accessor per field. It
    is what the snapshot transformations {e compile into}, and it stays
    the reference implementation the from-scratch solvers run on,
    Transformation 2's min-cost flows ({!Mincost}, {!Out_of_kilter})
    included. This module is what a long-running scheduler
    {e executes on}: a residual network in flat int arrays —

    - arcs sorted by source node ([row_ptr]/[head]/[tail], the classic
      CSR layout), so a node's out-arcs are one cache-friendly slice
      instead of a pointer chase;
    - residual partners paired by index ([rev]), capacities in a
      parallel int array mutated in place;
    - every piece of solver scratch — layered-network BFS queue and
      levels, current-arc cursors, the DFS path stack — preallocated at
      construction.

    Its one solver, {!dinic}, runs on this layout with {b zero minor-heap
    allocation}: no closures, no options, no tuples, no refs on any
    per-cycle path. The online engine ([Rsin_engine.Incremental]) serves
    both disciplines with it: Transformation 1 as one run, and
    priorities one class at a time, one run per class. A warm
    scheduling cycle — capacity toggles, {!dinic}, {!extract_paths}
    freezing the new circuits, a what-if probe undone by {!rollback},
    and each circuit's release through {!thaw} and {!set_flow} —
    therefore allocates nothing at all, which [bench/csr_bench.ml]
    (E34) asserts with a calibrated [Gc.minor_words] delta on a
    1024-port network.

    Arcs are addressed by {e graph} arc indices: forward arc [i] is
    [2 i] (the value {!Graph.add_arc} returns for the [i]-th arc) and
    its residual partner is [a lxor 1], so the link↔arc correspondence
    of {!Rsin_core.Netgraph} addresses either representation; the CSR
    position of an arc is an internal detail. Each row keeps the arcs in
    graph-arc order, and {!next_flow_arc} and {!extract_paths} scan it
    from the end — newest arc first, the order of {!Graph.iter_out} —
    so they decompose a flow into the same paths as graph-based path
    extraction does. *)

type t

type stats = {
  mutable passes : int;        (** Dinic phases of the last run *)
  mutable augmentations : int; (** flow units pushed *)
  mutable arcs_scanned : int;  (** residual arcs examined *)
}

val create :
  nodes:int ->
  arcs:int ->
  src:(int -> int) ->
  dst:(int -> int) ->
  cap:(int -> int) ->
  t
(** [create ~nodes ~arcs ~src ~dst ~cap] lays out a network directly in
    CSR form, without building a {!Graph}: forward arc [i] (graph arc
    [2 i], for [0 <= i < arcs]) runs from node [src i] to node [dst i]
    with capacity [cap i] and no flow. Each function is called
    a bounded number of times per arc during construction only. This is
    how {!Rsin_core.Netgraph.compile_full} emits the online engine's
    network. O(nodes + arcs). *)

val of_graph : Graph.t -> t
(** Snapshots the graph — structure and residual capacities — into
    CSR form; arc costs are not copied, since no CSR solver reads
    them. O(nodes + arcs). The graph is not referenced afterwards;
    {!write_flows} copies a solved flow back. *)

val node_count : t -> int
val arc_count : t -> int
(** Number of forward arcs, as in {!Graph.arc_count}. *)

(** {1 State access — graph arc indices}

    Same contracts as the {!Graph} namesakes: [flow], [set_capacity],
    [set_flow], [freeze], [thaw] and [original_capacity] accept
    {e forward} arc indices only; [capacity] and [push] accept both
    sides. All mutators are O(1) int-array writes. *)

val capacity : t -> Graph.arc -> int
val original_capacity : t -> Graph.arc -> int
val flow : t -> Graph.arc -> int
val push : t -> Graph.arc -> int -> unit
val set_capacity : t -> Graph.arc -> int -> unit
val set_flow : t -> Graph.arc -> int -> unit

val freeze : t -> Graph.arc -> unit
(** [freeze t a] locks the flow on saturated forward arc [a] by removing
    the residual (undo) capacity of its partner, and marks it frozen
    ({!is_frozen}), the state {!extract_paths} leaves every arc it
    crosses in and {!rollback} leaves alone. An augmenting path can then
    neither use nor reroute the arc — exactly the status of a link
    carried by an {e established} circuit, which a later scheduling
    cycle must route around, not through. Raises [Invalid_argument]
    unless the arc is saturated. *)

val thaw : t -> Graph.arc -> unit
(** [thaw t a] restores the residual capacity of forward arc [a] to its
    flow value, undoing {!freeze}. Typically followed by
    [set_flow t a 0] when the circuit holding the arc is released. *)

val is_frozen : t -> Graph.arc -> bool

val src : t -> Graph.arc -> int
val dst : t -> Graph.arc -> int
(** Endpoints of an arc, either side, as {!Graph.src}/{!Graph.dst}. *)

val next_flow_arc : t -> int -> Graph.arc
(** [next_flow_arc t v] is the forward out-arc of node [v] that carries
    unfrozen flow and comes first in {!Graph.iter_out}'s order (newest
    arc first), or [-1] if there is none. Walking a unit of flow with it
    and freezing each arc crossed decomposes the flow of the last
    augmentation into paths, choosing the same paths a first-fit walk
    over the adjacency graph would. No allocation. *)

val flow_value : t -> source:int -> int
(** Net flow out of a node: out-flow minus in-flow over its row. *)

(** {1 Solver} *)

val dinic : t -> source:int -> sink:int -> int
(** Layered-network blocking flow (Dinic) with current-arc cursors.
    Resets {!last_stats}, augments from the current residual state
    (warm start: frozen flow is routed around, existing unfrozen flow is
    kept), and returns the flow {e added}. Zero minor-heap allocation. *)

val source_side : t -> int -> bool
(** [source_side t v], read after {!dinic}: whether the run's final BFS
    reached node [v], i.e. whether [v] is residual-reachable from the
    source. That set is the source side of the canonical minimum cut,
    the one {!Edmonds_karp.min_cut} reads; it does not depend on which
    maximum flow was found. O(1), no allocation. *)

val last_stats : t -> stats
(** Work counters of the most recent solver run. The record is owned by
    [t] and overwritten by the next run — copy fields out, do not
    retain it. *)

(** {1 Warm-cycle operations — zero allocation} *)

val extract_paths :
  t -> source:int -> sink:int -> arcs:Graph.arc array -> ends:int array -> int
(** [extract_paths t ~source ~sink ~arcs ~ends] decomposes the unfrozen
    flow into unit [source]–[sink] paths, freezing every arc it crosses,
    and returns the path count [n]. Path [k]'s forward arcs, source side
    first, land in [arcs] from offset [ends.(k-1)] (0 for [k = 0]) up to
    [ends.(k)] exclusive. The paths, in order, are exactly those that
    repeated {!next_flow_arc} walks from [source] would find, freezing
    as they go; but the source row is scanned once, top to bottom, and
    the walk runs on the arrays. No allocation. Raises [Failure] on
    flow that strands or cycles, and [Invalid_argument] on a bad node,
    an unsaturated arc or a buffer too small — each arc is crossed at
    most once, so [arcs] of length {!arc_count} always suffices. *)

val rollback : t -> unit
(** Zeroes the flow on every unfrozen arc, leaving frozen arcs and all
    capacities alone: it undoes every augmentation since the last
    freeze. With {!source_side} it turns the warm network into a
    what-if probe — toggle endpoint capacities, {!dinic}, read the cut,
    roll back, toggle back. One O(arcs) scan, no allocation. *)

(** {1 Interop and validation} *)

val write_flows : t -> Graph.t -> unit
(** Copies the CSR flow assignment back onto the graph the snapshot was
    taken from ({!Graph.set_flow} per forward arc) — how the registry's
    [dinic-csr] solver leaves its result where every
    {!Graph}-based caller (extraction, conservation checks) expects it.
    Frozen arcs are skipped: the graph has no notion of them. *)

val check_rev_pairing : t -> (unit, string) result
(** Structural invariants tying the two representations together:
    [rev] is a fixed-point-free involution matching [a lxor 1] in graph
    terms, partner head/tail mirror each other, the graph↔CSR
    position maps are mutually inverse, each arc lies in its tail's
    [row_ptr] slice, and residual capacities of a pair sum to the
    original capacity (frozen pairs: residual side 0, flow within
    bounds). The drift tripwire for {!create} and {!of_graph}. *)

val check_conservation : t -> source:int -> sink:int -> (unit, string) result
(** Capacity bounds and flow conservation, as
    {!Graph.check_conservation}. *)
