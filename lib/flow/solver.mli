(** One façade over the maximum-flow engines.

    Transformation 1 originally pattern-matched three solver signatures,
    and the benches matched two more; every caller that wants "a max
    flow, plus how much work it took" now goes through this module type
    instead. Per-solver extras (Dinic's layered phases, push–relabel's
    gap jumps, ...) remain available on the underlying modules; the
    shared {!work} record is the least common denominator every caller
    can rely on.

    The registry maps stable names to first-class modules so benches,
    the scheduler and the fault benches can select a solver from a
    string (CLI flag, config file) without a variant per call-site. *)

type work = {
  passes : int;
      (** outer iterations: Dinic phases, EK/SSP augmentation rounds,
          push–relabel relabels, out-of-kilter potential updates *)
  augmentations : int;  (** augmenting paths (pushes for push–relabel) *)
  arcs_scanned : int;   (** residual arcs examined, or a solver proxy *)
}

module type S = sig
  val name : string
  (** Registry key, e.g. ["dinic"]. *)

  val max_flow :
    ?obs:Rsin_obs.Obs.t ->
    Graph.t -> source:Graph.node -> sink:Graph.node -> int * work
  (** Computes a maximum [source]→[sink] flow, leaving it in the graph,
      and returns its value with the normalized work counters. Arc costs
      are ignored by the pure max-flow engines; the min-cost backends
      ("mincost", "out-of-kilter") return a maximum flow that is also
      cost-minimal among maximum flows. *)
end

val all : (module S) list
(** Every registered solver, in registry order:
    dinic, edmonds-karp, push-relabel, mincost, out-of-kilter,
    dinic-csr. [dinic-csr] is [dinic] on the flat zero-allocation
    {!Csr} core the online engine runs, with the same tie-breaks, so
    it leaves the same flow on every arc; it is in the registry so the
    differential suites can compare the two representations through
    one interface. *)

val names : unit -> string list

val find : string -> (module S) option

val get : string -> (module S)
(** Like {!find} but raises [Invalid_argument] listing the known names. *)
