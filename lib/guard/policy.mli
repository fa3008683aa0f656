(** Robustness policy configuration.

    One validated record gathers every knob of the guard layer the
    engine threads through serving: admission control (bounded pending
    queues with a shedding policy), backoff re-admission of fault
    victims (exponential backoff with deterministic jitter and a
    per-task retry budget), and flap-detecting element quarantine.
    [None] guard in {!Engine.Config} means every mechanism is off and
    the engine behaves exactly as before the guard layer existed — the
    differential suites rely on that.

    Like {!Engine.Config}, the record is [private]: build one with
    {!make} (validating, [Result]) or {!v} (raising), and round-trip it
    with {!to_json}/{!of_json} — checkpoints embed it. *)

type shed_policy =
  | Drop_tail
      (** a full queue sheds the newcomer — cheapest, FIFO-friendly *)
  | Deadline_aware
      (** a full queue sheds the pending task (newcomer included) with
          the least remaining deadline slack — the one most likely to
          expire anyway; tasks without deadlines are shed last, ties
          shed the newest *)

type t = private {
  queue_bound : int;
      (** max pending tasks per processor queue; [0] = unbounded
          (admission control off) *)
  shed_policy : shed_policy;
  retry_base : int;  (** backoff of the first re-admission, slots *)
  retry_cap : int;   (** backoff ceiling, slots *)
  retry_jitter : int;
      (** max extra slots of deterministic jitter added per retry *)
  retry_budget : int;
      (** teardowns a task survives before the engine gives it up;
          [0] = give up on first victimization *)
  seed : int;        (** jitter stream seed (see {!Retry.delay}) *)
  flap_k : int;
      (** faults within [flap_window] that trigger quarantine;
          [0] = quarantine off *)
  flap_window : int;     (** sliding fault-counting window, slots *)
  quarantine_slots : int;  (** cooling-off period, slots *)
}

val make :
  ?queue_bound:int ->
  ?shed_policy:shed_policy ->
  ?retry_base:int ->
  ?retry_cap:int ->
  ?retry_jitter:int ->
  ?retry_budget:int ->
  ?seed:int ->
  ?flap_k:int ->
  ?flap_window:int ->
  ?quarantine_slots:int ->
  unit ->
  (t, string) result
(** Defaults: queue bound 64, [Drop_tail], backoff 1→64 slots with
    jitter ≤ 3, budget 8 retries, seed 0x9a, quarantine after 3 faults
    within 50 slots for 100 slots. Validation: [queue_bound ≥ 0],
    [retry_base ≥ 1], [retry_cap ≥ retry_base], [retry_jitter ≥ 0],
    [retry_budget ≥ 0], [flap_k ≥ 0], [flap_window ≥ 1],
    [quarantine_slots ≥ 1]. *)

val v :
  ?queue_bound:int ->
  ?shed_policy:shed_policy ->
  ?retry_base:int ->
  ?retry_cap:int ->
  ?retry_jitter:int ->
  ?retry_budget:int ->
  ?seed:int ->
  ?flap_k:int ->
  ?flap_window:int ->
  ?quarantine_slots:int ->
  unit ->
  t
(** {!make} raising [Invalid_argument]. *)

val default : t
(** [v ()]. *)

val shed_policy_to_string : shed_policy -> string
val shed_policy_of_string : string -> (shed_policy, string) result

val to_json : t -> Rsin_util.Json.t

val of_json : Rsin_util.Json.t -> (t, string) result
(** Under {!Rsin_util.Json.Decode}'s rule: a field absent or [null]
    takes its default, a field of the wrong shape is an error, and
    out-of-range values are errors (everything re-validates through
    {!make}). *)
