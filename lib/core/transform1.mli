(** Transformation 1 (paper Section III-B): homogeneous MRSIN → maximum
    flow.

    Given a circuit-switched network state, the set of requesting
    processors and the set of free resources, build the unit-capacity
    flow network of the paper:

    - node sets [P] (requesting processors), [X] (switchboxes), [R]
      (free resources), plus source [s] and sink [t] (step T1);
    - arcs [s→p] for every request, [r→t] for every free resource, and
      one arc per {e free} network link (steps T2–T3); occupied links,
      idle processors and busy resources contribute no arcs (step T4).

    By Theorems 1–2, a maximum integral flow of this network is an
    optimal request→resource mapping, and its path decomposition gives
    the link-disjoint circuits realizing it. *)

type t
(** A built flow network together with the MRSIN↔graph correspondence. *)

type outcome = {
  mapping : (int * int) list;
      (** allocated (processor, resource) pairs *)
  circuits : (int * int list) list;
      (** per allocated processor, the network links of its circuit *)
  allocated : int;
  requested : int;
  blocked : int;
      (** [requested - allocated]; under the optimal mapping this counts
          requests that are genuinely unroutable (network blockage or a
          resource shortage), never scheduler suboptimality *)
  augmentations : int;
  arcs_scanned : int;
}

val build : Rsin_topology.Network.t -> requests:int list -> free:int list -> t
(** Constructs the flow network from the {e current} state of the
    network (occupied links are excluded). [requests] are processor
    indices, [free] resource-port indices; duplicates are ignored.
    Raises [Invalid_argument] on out-of-range indices. *)

val graph : t -> Rsin_flow.Graph.t
val source : t -> Rsin_flow.Graph.node
val sink : t -> Rsin_flow.Graph.node

val proc_node : t -> int -> Rsin_flow.Graph.node option
(** Graph node of a requesting processor, [None] if it is not requesting. *)

val res_node : t -> int -> Rsin_flow.Graph.node option
val box_node : t -> int -> Rsin_flow.Graph.node

val solve_with : ?obs:Rsin_obs.Obs.t -> (module Rsin_flow.Solver.S) -> t -> outcome
(** Runs the given registry max-flow solver, e.g.
    [solve_with (Rsin_flow.Solver.get "push-relabel") t], and extracts
    the optimal mapping and circuits. Idempotent per [t] — the
    underlying graph keeps its flow. [obs] is passed through to the
    flow solver (its operation counters land in the [flow.*] registry
    metrics) and also receives [transform1.*] allocation counters. The
    outcome's [augmentations]/[arcs_scanned] are the registry's
    normalized {!Rsin_flow.Solver.work} counters. *)

val solve : ?obs:Rsin_obs.Obs.t -> t -> outcome
(** [solve_with] the registry's ["dinic"]. *)

val schedule :
  ?obs:Rsin_obs.Obs.t ->
  Rsin_topology.Network.t -> requests:int list -> free:int list -> outcome
(** [build] + [solve]. Does not modify the network. *)

val commit : Rsin_topology.Network.t -> outcome -> int list
(** Establishes every circuit of the outcome in the network; returns the
    circuit ids. Raises if any link is no longer free. *)

val max_allocatable : t -> int
(** Upper bound [min (#requests) (#free)] used for blocking accounting. *)

val size : t -> int * int
(** [(nodes, forward arcs)] of the built flow graph — the construction
    work a rebuild-per-cycle scheduler pays every cycle, which the
    warm-started engine's solver-work comparison charges against it. *)

val bottleneck : t -> [ `Link of int | `Proc of int | `Res of int ] list
(** After {!solve}: the minimum cut limiting the allocation, in network
    terms — the saturated links, plus requests/resources whose own
    source/sink arc is the binding constraint. By max-flow/min-cut the
    total count equals the number allocated, so when requests were
    blocked, the [`Link]s listed are exactly the contended wires a
    network designer would widen (e.g. by adding an extra stage). *)
