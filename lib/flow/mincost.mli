(** Minimum-cost flow by successive shortest paths with node potentials.

    This is the workhorse for Transformation 2 (homogeneous MRSIN with
    request priorities and resource preferences): the transformation
    produces a unit-capacity network with non-negative arc costs and a
    bypass node that guarantees feasibility for any requested flow value
    F₀, and this solver finds the minimum-cost integral flow of that
    value. Johnson-style potentials keep reduced costs non-negative, so
    after a single Bellman–Ford initialisation every augmentation is a
    Dijkstra search. *)

type stats = {
  augmentations : int;
  arcs_scanned : int;
}

type result = {
  flow : int;   (** amount actually pushed *)
  cost : int;   (** total cost of the final flow *)
  stats : stats;
}

val min_cost_flow :
  ?obs:Rsin_obs.Obs.t ->
  Graph.t -> source:Graph.node -> sink:Graph.node -> amount:int -> result
(** Pushes up to [amount] units from source to sink along successively
    cheapest paths. Stops early when the sink becomes unreachable; the
    returned [flow] field reports the amount actually pushed. Supports
    negative arc costs as long as the initial network has no negative
    cycle. The graph is left holding the computed flow. *)

val min_cost_max_flow :
  ?obs:Rsin_obs.Obs.t ->
  Graph.t -> source:Graph.node -> sink:Graph.node -> result
(** Minimum-cost flow among maximum flows. With [obs], the stats are
    also added to the [flow.mincost.*] registry counters. Any flow
    the graph already carries is kept and only augmented. The online
    engine reaches the same optimum warm on its {!Csr} network by
    running {!Csr.dinic} one priority class at a time
    ([Rsin_engine.Incremental]); the tests check it against this
    solver. *)
