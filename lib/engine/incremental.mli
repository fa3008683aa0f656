(** Persistent, warm-started scheduling state for the online engine,
    generic over the serving discipline.

    The network covers the {e whole} topology and is emitted once by
    {!Rsin_core.Netgraph.compile_full} straight into a flat
    {!Rsin_flow.Csr} network; request arrivals, resource state changes,
    faults and circuit releases are O(1) capacity writes, and a
    scheduling cycle is a warm augment over the residual network with
    {!Rsin_flow.Csr.dinic}, which allocates nothing. Circuits committed
    in earlier cycles stay in the network as {e frozen} feasible flow
    ({!Rsin_flow.Csr.freeze}), so each cycle only pays for the
    incremental augmentation — and a cycle in which no capacity was
    added since the last solve is skipped outright, because removed
    capacity cannot create an augmenting path.

    The residual network visible to the solver is isomorphic to the
    from-scratch transformation network of the same snapshot. Under
    {!Maxflow} a cycle is one Dinic run, and allocates exactly as many
    requests as {!Rsin_core.Transform1.schedule}. Under {!Priority} a
    cycle solves one priority class at a time: the pending source arcs
    are switched off, then each class, highest first, is switched on
    and Dinic extends the flow. A routed processor's source arc stays
    saturated (an augmenting path never re-enters the source), so no
    later class un-routes it. The sets of requests edge-disjoint
    circuits can serve at once form a matroid (a gammoid), so this
    greedy extension is optimal (Rado–Edmonds): the final flow is
    maximum and, among maximum flows, serves the most total priority —
    the optimum {!Rsin_core.Transform2}'s bypass costs select. That
    argument needs the r→t arcs to carry no cost: a preference among
    resources would make the objective no longer a sum over requests,
    and the greedy solve would lose its guarantee. This network has
    none. The differential tests in [test/test_engine.ml] and
    [test/test_csr.ml] assert both optima, cycle by cycle. *)

type t

type discipline =
  | Maxflow   (** Transformation 1: any maximum allocation *)
  | Priority  (** Transformation 2 with priorities: among maximum
                  allocations, maximize the total served priority,
                  solved one priority class at a time *)

val create : ?discipline:discipline -> Rsin_topology.Network.t -> t
(** Builds the full-topology flow network from the network's current
    link state (occupied links start with capacity 0). All request and
    resource arcs start switched off. The network is only read during
    compilation, never mutated. Default discipline: {!Maxflow}. *)

val set_requesting : t -> priority:int -> int -> bool -> unit
(** [set_requesting t ~priority p on] switches processor [p]'s source
    arc on/off (capacity 1/0) and files [priority] (must be
    non-negative) as its request's priority. Must not be called while a
    committed circuit holds the arc. Turning an arc on marks the state
    dirty; turning one off never does (removing unused capacity cannot
    create an augmenting path). Call again with the new priority when a
    pending request's priority changes (e.g. its queue head is
    replaced); that is bookkeeping, neither an update nor a reason to
    re-solve. {!Maxflow} ignores priorities. No allocation. *)

val set_resource_free : t -> int -> bool -> unit
(** Same for resource [r]'s sink arc. *)

val set_link_usable : t -> int -> bool -> unit
(** [set_link_usable t l on] switches network link [l]'s arc on/off —
    the warm-path encoding of a hardware fault ([off], an O(1) capacity
    delta) or repair ([on], dirties the state so the next solve
    re-augments). The caller decides [on] from [Network.usable] so that
    repairing one element never re-enables a link still masked by
    another. Raises [Invalid_argument] while a committed circuit holds
    the link's frozen arc — tear the victim down with {!release}
    first. *)

val requesting : t -> int -> bool
val resource_free : t -> int -> bool

val solve : ?obs:Rsin_obs.Obs.t -> t -> int
(** One scheduling cycle: augments from the current residual network
    with the discipline's solve, freezes the new flow into circuits and
    returns how many it found; {!found} names their processors. Under
    {!Priority} the pending, uncommitted processors are sorted by
    priority, highest first, in place (O(k log k) for [k] of them), and
    one {!Rsin_flow.Csr.dinic} runs per distinct priority, until the
    flow fills every free resource. With [obs], each Dinic run's work is
    added to the [flow.dinic_csr.*] counters. When nothing was enabled
    since the last solve, returns 0 at once with {!last_skipped} set and
    no solver work. Allocates nothing: the circuits land in
    preallocated per-processor slots, found in one pass over the source
    row ({!Rsin_flow.Csr.extract_paths}). *)

val last_work : t -> int
(** Work charged to the last {!solve}: capacity updates since the solve
    before it, plus the arcs its Dinic runs scanned. *)

val last_skipped : t -> bool
(** Whether the last {!solve} found a clean residual network and did not
    run the solver. *)

val found : t -> int -> int
(** [found t k] is the processor of the [k]-th circuit the last {!solve}
    committed, in extraction order, for [k] below the count it
    returned. *)

(** {1 Committed circuits}

    A processor holds at most one committed circuit at a time: its
    source arc stays frozen until {!release}. Each circuit is kept as
    its [Network.stages + 3] arcs (s→p, one link per box stage plus
    the last, r→t) in a slot of the processor that transmits it. *)

val holds : t -> int -> bool
(** Whether processor [p] holds a committed circuit. *)

val circuit_res : t -> int -> int
(** The resource processor [p]'s circuit ends at. *)

val circuit_links : t -> int -> int list
(** The network links of processor [p]'s circuit, in path order.
    Allocates the list. Raise [Invalid_argument] when [p] holds no
    circuit, as {!circuit_res} does. *)

val release : t -> int -> unit
(** [release t p] releases processor [p]'s committed circuit: thaws and
    clears its flow, restores its link capacities, and switches its
    endpoint arcs off (the engine re-enables them when the processor
    still has queued tasks or the resource finishes service). Marks the
    state dirty — freed links may unblock requests proved unroutable
    earlier. Raises [Invalid_argument] when [p] holds none. *)

val discipline : t -> discipline
val dirty : t -> bool

val total_work : t -> int
(** Cumulative solver work: capacity updates + residual arcs
    scanned. *)

val pending_ops : t -> int
(** Capacity updates since the last solve — serialized by
    {!Engine.snapshot} so a restored engine reports the same per-cycle
    work as the uninterrupted run. *)

val headroom : t -> idle:(int -> bool) -> int
(** [headroom t ~idle] asks, on the live network, how many of the
    processors satisfying [idle] a maximum flow could still connect to
    free ports. It switches every uncommitted source arc to [idle p],
    runs {!Rsin_flow.Csr.dinic}, reads the canonical min cut
    ({!Rsin_flow.Csr.source_side}) — the donor is fabric-limited when a
    switched-on, uncommitted link arc crosses it, which
    {!last_fabric_limited} then reports — then rolls the flow back
    ({!Rsin_flow.Csr.rollback}) and restores every source arc.

    Both answers equal those of a from-scratch
    {!Rsin_core.Transform1} over requests = idle processors and free =
    free ports ({!Rsin_core.Transform1.bottleneck} for the cut): frozen
    and switched-off arcs carry no residual, so the residual networks
    coincide, max-flow values are unique, and the residual-reachable
    side is the canonical cut. Must be called between solves (no
    unfrozen flow). Leaves {!dirty}, {!pending_ops} and {!total_work}
    alone, so nothing a later
    {!solve} does can tell that a probe ran. Allocates nothing. *)

val last_fabric_limited : t -> bool
(** Whether the last {!headroom} probe's min cut crossed a fabric
    link. *)

val restore_circuit : t -> proc:int -> res:int -> links:int list -> unit
(** [restore_circuit t ~proc ~res ~links] re-freezes a circuit recorded
    in a checkpoint into a freshly created [t]: unit flow is forced onto
    the [s→p], link and [r→t] arcs and their residual capacity removed,
    reproducing exactly the state {!solve} left after committing that
    circuit, and [proc] holds it. [links] must be the circuit's links in
    path order. Does not touch the dirty flag or work counters (see
    {!restore_flags}). Raises [Invalid_argument] if any arc is already
    frozen, [links] contains an unknown link or is not one link per
    stage plus one long. *)

val restore_flags : t -> dirty:bool -> pending_ops:int -> total_work:int -> unit
(** Reinstates the solver bookkeeping serialized in a checkpoint. *)

val netgraph : t -> Rsin_flow.Csr.t Rsin_core.Netgraph.t
(** The underlying compiled network and correspondence (tests and
    diagnostics). *)

val check : t -> (unit, string) result
(** Flow-conservation check of the persistent network (tests). *)
