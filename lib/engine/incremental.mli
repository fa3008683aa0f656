(** Persistent, warm-started scheduling state for the online engine,
    generic over the serving discipline.

    The network covers the {e whole} topology and is emitted once by
    {!Rsin_core.Netgraph.compile_full} straight into a flat
    {!Rsin_flow.Csr} network; request arrivals, resource state changes,
    faults and circuit releases are O(1) capacity (and, under
    {!Mincost}, cost) writes, and a scheduling cycle is one warm augment
    over the residual network — {!Rsin_flow.Csr.dinic} under {!Maxflow},
    {!Rsin_flow.Csr.mincost} under {!Mincost}, neither of which
    allocates. Circuits committed in earlier cycles stay in the network
    as {e frozen} feasible flow ({!Rsin_flow.Csr.freeze}), so each cycle
    only pays for the incremental augmentation — and a cycle in which no
    capacity was added since the last solve is skipped outright, because
    neither removed capacity nor a cost update can create an augmenting
    path.

    The residual network visible to the solver is isomorphic to the
    from-scratch transformation network of the same snapshot. Under
    {!Maxflow} warm cycles therefore allocate exactly as many requests
    as {!Rsin_core.Transform1.schedule}; under {!Mincost} — where each
    pending request's source arc costs minus its priority — the
    successive-shortest-path augment maximizes the allocation count
    first and then the total served priority, which is the optimum
    {!Rsin_core.Transform2}'s bypass costs select. The differential
    tests in [test/test_engine.ml] and [test/test_csr.ml] assert both,
    cycle by cycle. *)

type t

type discipline =
  | Maxflow   (** Transformation 1: any maximum allocation *)
  | Mincost   (** Transformation 2 with priorities: among maximum
                  allocations, maximize the total served priority *)

type circuit = {
  proc : int;
  res : int;
  links : int list;          (** network links of the committed circuit *)
  arcs : Rsin_flow.Graph.arc list;
      (** the frozen arcs (s→p, links…, r→t); pass back to {!release}
          unchanged *)
}

type solve_result = {
  circuits : circuit list;  (** newly committed, already frozen *)
  work : int;               (** capacity updates since last solve + arcs scanned *)
  skipped : bool;           (** clean residual network, solver not invoked *)
}

val create : ?discipline:discipline -> Rsin_topology.Network.t -> t
(** Builds the full-topology flow network from the network's current
    link state (occupied links start with capacity 0). All request and
    resource arcs start switched off. The network is only read during
    compilation, never mutated. Default discipline: {!Maxflow}. *)

val set_requesting : t -> ?priority:int -> int -> bool -> unit
(** [set_requesting t ?priority p on] switches processor [p]'s source
    arc on/off (capacity 1/0). Must not be called while a committed
    circuit holds the arc. Turning an arc on marks the state dirty;
    turning one off never does (removing unused capacity cannot create
    an augmenting path). Under {!Mincost} the arc's cost is also set to
    [-priority] (default 0, must be non-negative) while on — call again
    with the new priority when a pending request's priority changes
    (e.g. its queue head is replaced); cost updates count as bookkeeping
    work but do not dirty a clean state. Under {!Maxflow}, [priority] is
    ignored. *)

val set_resource_free : t -> int -> bool -> unit
(** Same for resource [r]'s sink arc (always cost 0). *)

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

val solve : ?obs:Rsin_obs.Obs.t -> t -> solve_result
(** One scheduling cycle: augments from the current residual network
    with the discipline's solver and returns the newly allocatable
    circuits, frozen into the network. With [obs], the solver's work is
    added to the [flow.dinic_csr.*] or [flow.mincost_csr.*] counters.
    When nothing was enabled since the last solve, returns immediately
    with [skipped = true] and no solver work. *)

val release : t -> circuit -> unit
(** Releases a committed circuit: thaws and clears its flow, restores
    its link capacities, and switches its endpoint arcs off (the engine
    re-enables them when the processor still has queued tasks or the
    resource finishes service). Marks the state dirty — freed links may
    unblock requests proved unroutable earlier. *)

val discipline : t -> discipline
val dirty : t -> bool

val total_work : t -> int
(** Cumulative solver work: capacity/cost updates + residual arcs
    scanned. *)

val pending_ops : t -> int
(** Capacity/cost updates since the last solve — serialized by
    {!Engine.snapshot} so a restored engine reports the same per-cycle
    work as the uninterrupted run. *)

val headroom : t -> idle:(int -> bool) -> int * bool
(** [headroom t ~idle] asks, on the live network, how many of the
    processors satisfying [idle] a maximum flow could still connect to
    free ports: [(value, fabric_limited)]. It switches every
    uncommitted source arc to [idle p], runs {!Rsin_flow.Csr.dinic},
    reads the canonical min cut ({!Rsin_flow.Csr.source_side}) — the
    donor is [fabric_limited] when a switched-on, uncommitted link arc
    crosses it — then rolls the flow back
    ({!Rsin_flow.Csr.rollback}) and restores every source arc.

    Both answers equal those of a from-scratch
    {!Rsin_core.Transform1} over requests = idle processors and free =
    free ports ({!Rsin_core.Transform1.bottleneck} for the cut): frozen
    and switched-off arcs carry no residual, so the residual networks
    coincide, max-flow values are unique, and the residual-reachable
    side is the canonical cut. Must be called between solves (no
    unfrozen flow). Changes no cost and leaves {!dirty},
    {!pending_ops} and {!total_work} alone, so nothing a later
    {!solve} does can tell that a probe ran. *)

val restore_circuit : t -> proc:int -> res:int -> links:int list -> circuit
(** [restore_circuit t ~proc ~res ~links] re-freezes a circuit recorded
    in a checkpoint into a freshly created [t]: unit flow is forced onto
    the [s→p], link and [r→t] arcs and their residual capacity removed,
    reproducing exactly the state {!solve} left after committing that
    circuit. [links] must be the circuit's links in path order. Does not
    touch the dirty flag or work counters (see {!restore_flags}). Raises
    [Invalid_argument] if any arc is already frozen or [links] contains
    an unknown link. *)

val restore_flags : t -> dirty:bool -> pending_ops:int -> total_work:int -> unit
(** Reinstates the solver bookkeeping serialized in a checkpoint. *)

val netgraph : t -> Rsin_flow.Csr.t Rsin_core.Netgraph.t
(** The underlying compiled network and correspondence (tests and
    diagnostics). *)

val check : t -> (unit, string) result
(** Flow-conservation check of the persistent network (tests). *)
