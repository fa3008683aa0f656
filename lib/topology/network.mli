(** Circuit-switched multistage interconnection networks.

    A network connects [n_procs] processors (left side) to [n_res]
    resource ports (right side) through [stages] ranks of switchboxes.
    Switchboxes are crossbars without broadcast: a valid setting connects
    each input link to at most one output link and vice versa (paper
    Theorem 1). Links carry at most one circuit — this is the unit
    capacity that makes the flow transformations exact.

    The structure is deliberately general: any loop-free left-to-right
    configuration with arbitrary per-box fan-in/fan-out can be expressed,
    which covers Omega, baseline, indirect binary n-cube, delta, Beneš,
    Clos, crossbars, extra-stage variants and multipath (gamma-style)
    networks — exactly the generality the paper claims for its method. *)

type t

type endpoint =
  | Proc of int            (** processor index *)
  | Res of int             (** resource port index *)
  | Box_out of int * int   (** box id, output port *)
  | Box_in of int * int    (** box id, input port *)

type link_state =
  | Free
  | Occupied of int        (** circuit id *)

(** {1 Construction} *)

type box_spec = { fan_in : int; fan_out : int }

val build :
  name:string ->
  n_procs:int ->
  n_res:int ->
  stage_boxes:box_spec array array ->
  proc_wiring:int array ->
  stage_wiring:int array array ->
  res_wiring:int array ->
  t
(** [build] assembles a network.

    Rails are the numbered link positions between ranks: stage [s] inputs
    are numbered box-major (box 0 ports first), likewise outputs.
    [proc_wiring.(i)] is the stage-0 input rail fed by processor [i];
    [stage_wiring.(s).(r)] is the stage-[s+1] input rail fed by stage-[s]
    output rail [r]; [res_wiring.(r)] is the resource port fed by
    last-stage output rail [r]. Every wiring array must be a bijection
    onto the receiving rail space. Raises [Invalid_argument] on any
    inconsistency. *)

(** {1 Static structure} *)

val name : t -> string
val n_procs : t -> int
val n_res : t -> int
val stages : t -> int
val n_boxes : t -> int
val n_links : t -> int

val box_stage : t -> int -> int
val box_spec : t -> int -> box_spec
val boxes_in_stage : t -> int -> int list

val box_in_links : t -> int -> int array
(** Link ids entering the box, indexed by input port. *)

val box_out_links : t -> int -> int array

val link_src : t -> int -> endpoint
val link_dst : t -> int -> endpoint

val proc_link : t -> int -> int
(** The link leaving processor [i]. *)

val res_link : t -> int -> int
(** The link entering resource port [j]. *)

(** {1 Circuit switching state} *)

val link_state : t -> int -> link_state

(** {1 Element health}

    Every link, switchbox and resource carries an up/down health flag
    (all up at construction). Health is orthogonal to circuit occupancy:
    a fault does not release circuits by itself — tearing down victims is
    the caller's job (see [Rsin_fault] and the engine). Schedulers honor
    health through {!usable}, which [Netgraph] uses to compile down
    elements to zero capacity, so max-flow optimality (Theorems 1-3)
    holds on the surviving subnetwork. *)

val link_up : t -> int -> bool
val box_up : t -> int -> bool
val res_up : t -> int -> bool

val set_link_up : t -> int -> bool -> unit
val set_box_up : t -> int -> bool -> unit
val set_res_up : t -> int -> bool -> unit

(** {2 Quarantine}

    Orthogonal to health: the robustness layer ({!Rsin_guard}) marks a
    flapping element {e quarantined} for a cooling-off window. A
    quarantined element is excluded from {!usable} (and hence from every
    [Netgraph] compilation and free-link scan) even while nominally up,
    so a link that keeps dying cannot keep attracting circuits it will
    immediately tear down. All flags start false; {!copy} preserves
    them. *)

val link_quarantined : t -> int -> bool
val box_quarantined : t -> int -> bool
val res_quarantined : t -> int -> bool

val set_link_quarantined : t -> int -> bool -> unit
val set_box_quarantined : t -> int -> bool -> unit
val set_res_quarantined : t -> int -> bool -> unit

val res_available : t -> int -> bool
(** [res_available net r] is true iff resource port [r] is up {e and}
    not quarantined — the predicate schedulers must use when deciding
    whether [r] may serve. *)

val usable : t -> int -> bool
(** [usable net l] is true iff link [l] is up, not quarantined, and
    neither endpoint of [l] is a down or quarantined box or resource.
    Processors never fail. *)

val all_up : t -> bool
(** True iff no element is down or quarantined (the common fast path). *)

val establish : t -> int list -> int
(** [establish net links] claims the given links for a new circuit and
    returns its id. The links must be free and form a processor→resource
    path (source of the first is a [Proc], destination of the last a
    [Res], consecutive links joined through a box). Raises
    [Invalid_argument] otherwise. *)

val establish_unchecked : t -> int list -> int
(** Like {!establish} but only checks that links are free — used to
    pre-occupy arbitrary link sets when modelling a partially busy
    network. *)

val release : t -> int -> unit
(** Frees every link of the circuit. Unknown ids are ignored. O(links):
    live circuits are indexed by id. *)

val circuit_links : t -> int -> int list
(** The links of a live circuit, as {!establish} was given them. O(1).
    Raises [Invalid_argument] for an id that names no live circuit. *)

val circuits : t -> (int * int list) list
(** Live circuits as [(id, links)], newest first. Builds the list. *)

val clear_circuits : t -> unit

val free_links : t -> int list

(** {1 Derived views} *)

val copy : t -> t

val paths_exist : t -> unit
(** Sanity check: every processor can reach at least one resource port
    through the wiring when the network is empty. Raises [Failure]
    otherwise. Intended for generator tests. *)

val endpoint_to_string : endpoint -> string
(** Compact printable form, e.g. ["p3"], ["r5"], ["b2:i1"]. *)

val to_dot : t -> string

val pp_summary : Format.formatter -> t -> unit

val pp_occupancy : Format.formatter -> t -> unit
(** Text map of the link occupancy: one row of port flags per stage
    (['.'] free, ['#'] occupied), plus the processor and resource link
    rows — a quick visual of which circuits hold which wires. *)
