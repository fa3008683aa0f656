(** Mutable directed flow network with residual arcs.

    Every call to {!add_arc} creates a forward arc and its residual
    partner; partner indices differ in the lowest bit ([a lxor 1]), the
    standard trick that lets augmentation update both sides in O(1).
    Capacities, flows and costs are integers — the paper's transformations
    only ever produce unit or small-integer capacities, and integral
    capacities are what make the max-flow/min-cost optima integral
    (Theorems 2 and 3 rely on this).

    Arcs may carry a lower bound (used by the out-of-kilter solver); it
    defaults to 0 and is ignored by the other algorithms.

    This module is the {e snapshot and reference} representation:
    growable ({!Vec}-backed) adjacency built arc by arc by the
    from-scratch transformations and solved by the reference solvers.
    The warm engine runs on the flat int-array {!Csr} core instead,
    which uses the same arc indices, so everything compiled through
    {!Rsin_core.Netgraph} is addressed the same way in either
    representation. {!copy} exists for the differential tests, which
    solve the same snapshot under several solvers side by side. *)

type t
type node = int
type arc = int

val create : unit -> t

val add_node : t -> node
(** Appends a fresh node and returns its index (dense, starting at 0). *)

val add_nodes : t -> int -> node
(** [add_nodes g k] appends [k] nodes and returns the index of the first. *)

val node_count : t -> int

val arc_count : t -> int
(** Number of {e forward} arcs (residual partners are not counted). *)

val add_arc : ?cost:int -> ?low:int -> t -> src:node -> dst:node -> cap:int -> arc
(** Adds an arc of capacity [cap] (>= [low] >= 0) and unit cost [cost]
    (default 0) from [src] to [dst]. Returns the forward arc index, which
    is always even. *)

(** {1 Arc accessors}

    All accessors accept both forward and residual arc indices unless
    noted. *)

val src : t -> arc -> node
val dst : t -> arc -> node

val residual : arc -> arc
(** The partner arc ([a lxor 1]). *)

val is_forward : arc -> bool

val capacity : t -> arc -> int
(** Remaining residual capacity of the arc. *)

val original_capacity : t -> arc -> int
(** Capacity the forward arc was created with. Forward arcs only. *)

val lower_bound : t -> arc -> int
(** Lower bound of the forward arc. Forward arcs only. *)

val cost : t -> arc -> int
(** Unit cost; residual arcs report the negated forward cost. *)

val flow : t -> arc -> int
(** Current flow on a {e forward} arc. *)

val push : t -> arc -> int -> unit
(** [push g a k] sends [k] more units along arc [a] (forward or
    residual), updating both sides. Raises [Invalid_argument] if [k]
    exceeds the remaining capacity. *)

val set_flow : t -> arc -> int -> unit
(** [set_flow g a f] forces the flow on forward arc [a] to [f],
    [0 <= f <= original capacity]. Used by solvers that construct flows
    non-incrementally (out-of-kilter). *)

val reset_flows : t -> unit
(** Zeroes every flow, restoring all residual capacities. *)

val set_capacity : t -> arc -> int -> unit
(** [set_capacity g a c] changes the capacity of forward arc [a] to [c],
    preserving its current flow. Raises [Invalid_argument] if [c] is
    negative or below the current flow. This is what lets a long-running
    scheduler keep one persistent graph and switch arcs on ([c = 1]) and
    off ([c = 0]) as requests arrive and resources free up, instead of
    rebuilding the graph every cycle. *)

val set_cost : t -> arc -> int -> unit
(** [set_cost g a c] changes the unit cost of forward arc [a] to [c]
    (its residual partner becomes [-c]). The discipline-generic engine
    uses this to keep request priorities current on the persistent
    graph's source arcs without rebuilding it. *)

(** {1 Iteration} *)

val iter_out : t -> node -> (arc -> unit) -> unit
(** Iterates over all outgoing arcs of the node, forward and residual. *)

val fold_out : t -> node -> init:'a -> f:('a -> arc -> 'a) -> 'a

val iter_forward_arcs : t -> (arc -> unit) -> unit
(** Iterates over every forward arc in creation order. *)

val out_degree : t -> node -> int

(** {1 Validation and inspection} *)

val check_conservation : t -> source:node -> sink:node -> (unit, string) result
(** Verifies capacity bounds and flow conservation at every node except
    [source] and [sink]. *)

val out_flow : t -> node -> int
(** Net flow leaving the node (outgoing forward flow minus incoming
    forward flow). *)

val flow_value : t -> source:node -> int
(** Value of the current flow, measured at the source. *)

val total_cost : t -> int
(** Sum over forward arcs of [cost * flow]. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
(** Debug dump: one line per forward arc. *)

val to_dot : ?node_label:(node -> string) -> t -> string
(** Graphviz rendering; arcs annotated with [flow/cap] and cost. *)
