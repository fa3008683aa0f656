(** Dinic's maximum-flow algorithm with an exposed layered-network phase.

    The paper's distributed architecture (Section IV) is a hardware
    realization of exactly this algorithm: the request-token-propagation
    phase builds the layered network, the resource-token-propagation
    phase finds a maximal (blocking) flow in it, and path registration
    commits the augmentation. Exposing {!build_layers} and
    {!blocking_flow} separately lets the test suite check the distributed
    token simulator phase-by-phase against this reference implementation.

    On the unit-capacity networks produced by Transformation 1, Dinic
    runs in O(|V|^(2/3) |E|) — the bound the paper quotes. *)

type layers
(** A layered (level) network for a given residual graph. *)

type stats = {
  phases : int;         (** layered networks built, i.e. outer iterations *)
  augmentations : int;  (** augmenting paths pushed across all phases *)
  arcs_scanned : int;   (** residual arcs touched by BFS and DFS *)
}

val build_layers : Graph.t -> source:Graph.node -> sink:Graph.node -> layers option
(** BFS labelling of the residual network; [None] when the sink is no
    longer reachable (the flow is maximum). *)

val level : layers -> Graph.node -> int
(** Layer index of a node; [-1] when the node is unreachable. *)

val num_layers : layers -> int
(** Index of the sink's layer plus one. *)

val useful_arc : Graph.t -> layers -> Graph.arc -> bool
(** True when the residual arc advances exactly one layer and has
    residual capacity — the paper's "useful link". *)

val blocking_flow :
  Graph.t -> layers -> source:Graph.node -> sink:Graph.node -> int * int
(** Depth-first maximal flow in the layered network. Returns
    [(flow_added, arcs_scanned)]. Mutates the graph. *)

val max_flow :
  ?obs:Rsin_obs.Obs.t ->
  Graph.t -> source:Graph.node -> sink:Graph.node -> int * stats
(** Full algorithm: alternate {!build_layers} / {!blocking_flow} until the
    sink is unreachable. The graph is left holding a maximum flow. Any
    flow the graph already carries is kept and only augmented, so the
    return value is the flow {e added}; the online engine runs the same
    algorithm warm on its {!Csr} network ({!Csr.dinic}).

    With [obs], the returned {!stats} are also added to the
    [flow.dinic.*] registry counters, and a ["dinic.phase"] span is
    emitted per phase with cumulative arcs scanned as the domain clock. *)
