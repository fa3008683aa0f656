(** Flap detection and element quarantine bookkeeping.

    A link/box/resource that fails [flap_k] times within a
    [flap_window]-slot sliding window is {e quarantined} for
    [quarantine_slots]: the engine marks it in
    {!Rsin_topology.Network.set_link_quarantined} (etc.), so every
    [Netgraph] compilation and free-link scan excludes it even while the
    MTBF/MTTR process has it nominally up — circuits stop being routed
    onto an element that keeps tearing them down. This module only
    tracks the fault history and decides; applying the quarantine to the
    network and scheduling the release is the engine's job.

    The full detector state serializes to JSON (canonically ordered), so
    checkpoints preserve in-progress fault windows exactly. *)

type t

val create : Policy.t -> t
(** Fresh detector; with [policy.flap_k = 0] it never triggers. *)

val record_fault : t -> now:int -> Rsin_fault.Fault.element -> int option
(** Records a down-event at slot [now]. Returns [Some until] — the slot
    at which the quarantine should lift — when this fault is the
    [flap_k]-th within the window and the element is not already
    quarantined; the element's fault history resets and it is marked
    quarantined until [until = now + quarantine_slots]. [None]
    otherwise. *)

val is_quarantined : t -> Rsin_fault.Fault.element -> bool

val release : t -> Rsin_fault.Fault.element -> unit
(** Clears the quarantined mark (the engine calls this when the
    cooling-off timer fires). *)

val active : t -> (Rsin_fault.Fault.element * int) list
(** Currently quarantined elements with their release slots, in
    canonical (kind, index) order. *)

val to_json : t -> Rsin_util.Json.t

val of_json : Policy.t -> Rsin_util.Json.t -> (t, string) result
(** Inverse of {!to_json} under {!Rsin_util.Json.Decode}'s rule: both
    lists are required (absent or [null] is an error, not an empty
    list), and elements decode through
    {!Rsin_fault.Fault.decode_element}. *)
