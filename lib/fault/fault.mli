(** Fault model for RSIN networks.

    The paper's scheduling theorems promise the maximum number of
    allocations on whatever capacity exists; hardware faults only shrink
    that capacity. This module names the failable elements (links,
    switchboxes, resource ports), the up/down transition events, and a
    seeded MTBF/MTTR injector producing timed fault/repair sequences.

    Faults are modelled purely as capacity masks: {!apply} flips the
    health flags on a {!Rsin_topology.Network.t}, and every scheduler
    that consults [Network.usable] (all of them, via [Netgraph]) then
    sees the down element as zero capacity. Because masking only removes
    arcs, max-flow on the masked graph is still the exact optimum for
    the surviving subnetwork (DESIGN §8). Tearing down circuits that ride
    a newly dead element is deliberately {e not} done here — the engine
    owns circuit lifetime and performs victim re-admission. *)

type element =
  | Link of int  (** a wire between two ports *)
  | Box of int   (** a whole switchbox: masks every incident link *)
  | Res of int   (** a resource port: masks its access link *)

type event =
  | Link_down of int
  | Link_up of int
  | Box_down of int
  | Box_up of int
  | Res_down of int
  | Res_up of int

val element : event -> element
(** The element an event concerns. *)

(** {1 The element codec}

    Checkpoints write an element as two fields, ["kind"] ([link], [box]
    or [res]) and ["idx"]: inline in an engine heap event, or as the
    whole object under the guard's ["element"] fields. *)

val element_fields : element -> (string * Rsin_util.Json.t) list
(** [[("kind", Str "link"); ("idx", Num 3.)]] for [Link 3]. *)

val decode_element : Rsin_util.Json.t -> element
(** Reads the two fields of {!element_fields} from an object, under
    {!Rsin_util.Json.Decode}'s rule; an unknown kind is an error. Raises
    {!Rsin_util.Json.Decode.Error}. *)

val element_name : element -> string
(** The element's name in trace instants: ["link3"], ["box0"], ["res5"]. *)

val in_range : Rsin_topology.Network.t -> element -> bool
(** Whether the element's index names a link, box or resource port of
    the network. *)

val down_of : element -> event
val up_of : element -> event

val is_down : event -> bool
(** True for [_down] events, false for [_up] (repair) events. *)

val apply : Rsin_topology.Network.t -> event -> unit
(** Flip the element's health flag. Idempotent; does not touch circuit
    occupancy (victim teardown is the engine's job). *)

val affected_links : Rsin_topology.Network.t -> element -> int list
(** Links whose [usable] verdict the element participates in: the link
    itself, every link incident to the box, or the resource's access
    link. A link in this list is not necessarily unusable after a fault
    of the element — another element may already mask it — and
    conversely may stay masked after repair. *)

val victims : Rsin_topology.Network.t -> element -> int list
(** Circuit ids currently occupying an affected link of the element —
    the circuits a fault on it would sever. *)

(** {1 Seeded injection}

    Alternating-renewal injection: each element of the chosen population
    stays up for an [Exp(1/mtbf)] period, then down for an [Exp(1/mttr)]
    period, repeating until [horizon]. *)

type schedule = (int * event) list
(** Timed events, sorted by time (ties in element order); times are in
    the same integer slot units as the engine clock. *)

val inject :
  ?links:int list ->
  ?boxes:int list ->
  ?ress:int list ->
  Rsin_util.Prng.t ->
  Rsin_topology.Network.t ->
  horizon:int ->
  mtbf:float ->
  mttr:float ->
  schedule
(** [inject rng net ~horizon ~mtbf ~mttr] draws a fault/repair schedule
    over [0, horizon)]. The default population is every link (boxes and
    resources only if listed explicitly); pass [?links]/[?boxes]/[?ress]
    to choose the failable population. Each element draws from its own
    [Prng.split] sub-stream, so the schedule is stable under population
    reordering. Requires [mtbf > 0.] and [mttr > 0.]. *)

type clocked_schedule = (int * int * event) list
(** [(slot, intra-cycle status-bus clock, event)]: clock-granular
    schedule for mid-cycle injection into the distributed token
    protocol. *)

val inject_clocked :
  ?links:int list ->
  ?boxes:int list ->
  ?ress:int list ->
  Rsin_util.Prng.t ->
  Rsin_topology.Network.t ->
  horizon:int ->
  mtbf:float ->
  mttr:float ->
  clock_range:int ->
  clocked_schedule
(** Like {!inject}, plus a uniform intra-cycle status-bus clock in
    [\[0, clock_range)] per event, drawn from one further sub-stream:
    dropping the clocks gives exactly the {!inject} schedule for the
    same seed. Requires [clock_range >= 1]. *)
