(** Event-driven online allocation engine.

    The paper's operating model (Section II, Fig. 10) is online:
    requests arrive continuously, circuits are released as transmissions
    finish, and the scheduler runs cycle after cycle on a network that
    changes only slightly between cycles. This engine serves a recorded
    or synthesized workload trace ({!Rsin_sim.Workload.trace_event})
    through exactly that loop: a priority event queue of arrivals,
    releases, completions, cancellations and deadline expiries; batched
    admission generalizing {!Rsin_sim.Dynamic}'s [cycle_threshold]
    policy; and a pluggable scheduling strategy per cycle.

    Two strategies are provided. [Rebuild] re-runs
    {!Rsin_core.Transform1.schedule} from scratch every cycle — what the
    batch simulator does today. [Warm] (the default) keeps one
    persistent {!Incremental} flow graph in which surviving circuits
    stay frozen as feasible flow, so a cycle costs only the capacity
    deltas plus one residual augmentation — and costs {e nothing} when
    no capacity was added since the last solve. Both strategies allocate
    the optimal number of requests every cycle (max-flow values are
    unique even though mappings are not).

    Everything a run depends on besides the network and the trace — the
    strategy, the discipline, the rebuild solver, batching and fault
    injection — lives in one validated {!Config.t} record. The same
    record is the per-shard configuration {!Serve} ships to each domain
    of the sharded engine. *)

type mode =
  | Warm
  | Rebuild
  | Token
      (** every cycle runs on the distributed token architecture
          ({!Rsin_distributed.Token_sim}) instead of a centralized
          solver. Allocation counts match the other modes cycle for
          cycle (both are maximum flows); [solver_work] counts
          status-bus clock periods. This is the only mode that honors
          the optional intra-cycle [clock] on trace fault events: a
          clocked fault strikes {e mid-cycle} at that status-bus clock
          of its slot's scheduling cycle, exercising the protocol's
          watchdog/abort/retry recovery; the element then stays down on
          the network from that cycle onward. Uniform discipline only. *)

val mode_name : mode -> string
val mode_of_name : string -> (mode, string) result

type discipline =
  | Uniform
      (** all requests equal — Transformation 1 (max flow) per cycle *)
  | Priority
      (** each cycle serves a maximum number of requests and, among
          those, maximizes the total priority of the queue heads served
          — the optimum of Transformation 2 (a min-cost flow) per
          cycle. [Warm] reaches it over the persistent network one
          priority class at a time, highest first, with
          {!Rsin_flow.Csr.dinic} ({!Incremental}); [Rebuild] runs a
          from-scratch {!Rsin_core.Transform2.schedule}. *)

val discipline_name : discipline -> string
val discipline_of_name : string -> (discipline, string) result

(** The unified run configuration.

    One validated record replaces the former scatter of optional
    arguments ([?config], [?mode], [?discipline], [?solver], plus the
    CLI-side fault-injection knobs). Values are built only
    through {!Config.make}/{!Config.v}, so an inhabitant of {!Config.t}
    is valid by construction, and the record round-trips through JSON —
    which is how the sharded serve loop ships the exact same
    configuration to every domain. *)
module Config : sig
  type fault_plan = {
    mtbf : float;  (** mean slots between failures per element, > 0 *)
    mttr : float;  (** mean slots to repair a failed element, > 0 *)
    granularity : [ `Slot | `Clock ];
        (** [`Slot] applies each injected fault at its slot's cycle
            boundary; [`Clock] additionally draws a uniform intra-cycle
            status-bus clock per fault (honored by {!Token} mode). *)
  }

  type t = private {
    mode : mode;
    discipline : discipline;
    solver : string;
        (** a {!Rsin_flow.Solver} registry name. Picks the from-scratch
            solver of a [Rebuild]+[Uniform] cycle. [Warm] cycles always
            run on the flat zero-allocation {!Rsin_flow.Csr} core
            ({!Incremental}), whatever the name. *)
    transmission_time : int;  (** slots a circuit stays established, >= 1 *)
    batch_threshold : int;
        (** minimum pending requests (and free resources, capped by the
            request count) before a cycle is entered, >= 1 — the paper's
            wait-for-more-requests batching policy *)
    max_defer : int;
        (** a cycle is forced regardless of the threshold once the
            oldest pending request has waited this many slots, >= 1 —
            bounds the batching latency *)
    faults : fault_plan option;
        (** when set, the caller (CLI replay/serve) injects a seeded
            MTBF/MTTR fault/repair schedule into the trace before the
            run. The engine core consumes fault events from the trace;
            it never injects. *)
    guard : Rsin_guard.Policy.t option;
        (** when set, the robustness layer is active: bounded pending
            queues with drop-tail or deadline-aware shedding, backoff
            re-admission of fault victims under a retry budget, and
            flap-detecting element quarantine. [None] (the default)
            preserves the legacy behavior byte for byte. *)
  }

  val make :
    ?mode:mode ->
    ?discipline:discipline ->
    ?solver:string ->
    ?transmission_time:int ->
    ?batch_threshold:int ->
    ?max_defer:int ->
    ?faults:fault_plan option ->
    ?guard:Rsin_guard.Policy.t option ->
    unit ->
    (t, string) result
  (** Smart constructor; defaults are
      [Warm]/[Uniform]/["dinic"]/[1]/[1]/[16]/[None]/[None]. Validates
      every range, that [solver] names a registry member, and that
      [Token] is not combined with [Priority]. *)

  val v :
    ?mode:mode ->
    ?discipline:discipline ->
    ?solver:string ->
    ?transmission_time:int ->
    ?batch_threshold:int ->
    ?max_defer:int ->
    ?faults:fault_plan option ->
    ?guard:Rsin_guard.Policy.t option ->
    unit ->
    t
  (** {!make}, raising [Invalid_argument] on a bad combination. *)

  val default : t

  val pp : Format.formatter -> t -> unit

  val to_json : t -> Rsin_util.Json.t

  val of_json : Rsin_util.Json.t -> (t, string) result
  (** Inverse of {!to_json} under {!Rsin_util.Json.Decode}'s rule: a
      field absent or [null] takes its default, a field of the wrong
      shape is an error, and the result is re-validated through
      {!make}, so a decoded config is as trustworthy as a constructed
      one. *)
end

type cycle_info = {
  time : int;
  requests : int list;      (** pending processors entering the cycle *)
  free : int list;          (** free resource ports entering the cycle *)
  request_priorities : (int * int) list;
      (** (processor, queue-head priority) per pending request — all 0
          under {!Uniform} workloads *)
  mapping : (int * int) list;
      (** (processor, resource) pairs committed by this cycle *)
  allocated : int;
  work : int;               (** solver work charged to this cycle *)
  skipped : bool;           (** Warm only: clean graph, solver not run *)
}

type report = {
  mode : mode;
  horizon : int;            (** last slot with engine activity *)
  arrivals : int;
  allocated : int;          (** circuits established *)
  completed : int;          (** tasks fully served *)
  cancelled : int;
  expired : int;            (** deadline passed while still queued *)
  left_pending : int;       (** still queued when the event queue drained *)
  mean_wait : float;        (** slots from arrival to circuit, allocated tasks *)
  max_wait : int;
  throughput : float;       (** completions per slot of horizon *)
  utilization : float;      (** busy resource-slots / (resources × horizon) *)
  cycles : int;
  skipped_cycles : int;
  solver_work : int;
      (** total scheduling work: for [Warm], capacity updates + residual
          arcs scanned; for [Rebuild], per cycle the links scanned by the
          build, the arcs of the built graph, and the arcs scanned by the
          from-zero solve *)
  faults : int;             (** element-down events applied *)
  repairs : int;            (** element-up events applied *)
  victims : int;
      (** circuits torn down mid-transmission by a fault; their tasks
          were re-admitted at the head of their queue *)
  mean_readmission : float;
      (** slots from fault to the victim's next circuit ([0.] when no
          victim was re-admitted — not [nan], so reports stay comparable
          with [=]) *)
  shed : int;
      (** arrivals (or, under deadline-aware shedding, queue residents)
          rejected by admission control — always 0 without a guard *)
  given_up : int;
      (** fault victims abandoned after exhausting their retry budget *)
  retries : int;  (** backoff re-admissions scheduled for fault victims *)
  quarantines : int;  (** elements quarantined by the flap detector *)
}

(** {1 The stepper}

    A long-running engine instance. {!run} below is
    [create] + [feed] every event + [drain] + [report]; the sharded
    serve loop instead interleaves [feed] and [advance] slot by slot so
    a router can make admission decisions between slots. *)

type t

val create :
  ?obs:Rsin_obs.Obs.t ->
  ?config:Config.t ->
  ?cycle_hook:(Rsin_topology.Network.t -> cycle_info -> unit) ->
  ?event_hook:(events:int -> time:int -> unit) ->
  Rsin_topology.Network.t ->
  t
(** Builds an idle engine over a scratch copy of the network;
    pre-established circuits are treated as permanent blockages.

    [cycle_hook] is called once per entered cycle {e after} solving but
    {e before} the new circuits are established, so the network argument
    still shows the pre-commit state — this is what lets the
    differential tests re-schedule the same snapshot from scratch and
    compare allocation counts.

    [event_hook] is called once per simulated time slot, after the
    slot's event batch (and any cycle it triggered) has been fully
    processed, with the cumulative count of trace events consumed
    (arrivals, cancels, faults and repairs popped so far; not the
    releases, completions, deadline checks, wakes, retries and
    unquarantines the engine schedules for itself) and the slot time —
    the progress pulse the CLI's replay heartbeat is built on. It
    observes; it must not mutate the network. *)

val event_error :
  Rsin_topology.Network.t -> Rsin_sim.Workload.trace_event -> string option
(** [event_error net ev] is why an engine over [net] refuses [ev], if it
    does: an arrival with an out-of-range processor, a service time < 1
    or a negative priority; an arrival or cancel whose task id lies
    beyond ±2{^58} (the event heap keeps ids in an int beside a kind
    tag; trace and checkpoint ints stop at ±2{^53}); a fault or repair
    naming an element [net] lacks. {!feed} and [Serve.feed] both ask
    it, so a caller can check a whole trace before serving any of it. *)

val feed : t -> Rsin_sim.Workload.trace_event -> unit
(** Enqueues one trace event. Raises [Invalid_argument]
    (["Engine.feed: ..."]) on an event {!event_error} refuses, or on any
    event timed at or before a slot the engine has already served —
    streamed input must stay ahead of {!advance}.

    Task ids name live tasks only: the engine forgets a task once it is
    completed, cancelled, expired, shed or given up. An arrival whose
    id a queued, parked or in-flight task still holds is refused and
    counted as [shed] (guard or not), leaving the live task untouched;
    an id whose task has finished may be used again. The new task never
    meets its predecessor's events: each release, completion, retry and
    deadline the engine schedules names its task and acts only while
    that task's record still waits for the event's heap seq, so a
    deadline or a retry left behind by the finished task is a no-op.
    {!Serve} rejects repeated ids before they reach an engine. *)

val feed_arrival :
  t ->
  time:int ->
  id:int ->
  proc:int ->
  service:int ->
  priority:int ->
  deadline:int option ->
  unit
(** [feed t (Arrive { t = time; id; proc; ... })] without the event:
    the same checks and messages, filing the arrival straight into the
    engine's int slab. {!feed} delegates its arrivals here, and
    {!Serve} routes them here with their shard-local processor, so a
    re-targeted arrival costs no new event. *)

val advance : t -> upto:int -> unit
(** Serves every queued event (and every cycle, release, completion,
    expiry... they trigger) in slots [<= upto], then remembers [upto] as
    served. Events later fed must be timed strictly after it. *)

val drain : t -> unit
(** {!advance} to the end of the event queue: serves everything,
    including releases/completions scheduled beyond the last fed slot. *)

val served_upto : t -> int
(** Highest slot {!advance}/{!drain} has served, [min_int] before the
    first call. *)

val has_free_resource : t -> bool
(** Whether some resource port is idle {e and} healthy. O(1): the
    engine keeps the count of free ports current. *)

val cycle_due : t -> now:int -> bool
(** The batching gate: whether a slot at [now] would enter a scheduling
    cycle in the current state — a pending request and a free port, and
    either [batch_threshold] of each (ports capped by requests) or a
    queue head that has waited [max_defer] slots. Read from the kept
    pending and free counts, scanning the queue heads only when the
    threshold alone does not decide; allocates nothing (E34 asserts
    it). *)

(** {1 Borrowing headroom}

    What {!Serve} asks a donor shard before re-targeting an arrival to
    it: Transformation 1 over requests = the idle processors (no queued
    task, no transmission in flight) and free = the free ports. *)

val headroom : t -> (int * bool * int) option
(** [Some (value, fabric_limited, target)]: a maximum flow could still
    connect [value > 0] idle processors to free ports; [fabric_limited]
    when the canonical minimum cut crosses a fabric link (extra load
    would land on contended wires); [target] is the lowest idle
    processor. [None] when there is no idle processor, no free port or
    no routable pair.

    In [Warm] mode this is {!Incremental.headroom}: a what-if on the
    engine's own network, rolled back before it returns. It changes
    nothing a later cycle, report or {!snapshot} can see, and answers
    exactly what {!headroom_from_scratch} answers. Other modes run
    {!headroom_from_scratch}. Call it between slots. *)

val headroom_from_scratch : t -> (int * bool * int) option
(** The same answer from a from-scratch {!Rsin_core.Transform1} build
    and solve of the engine's network, the cut read by
    {!Rsin_core.Transform1.bottleneck}: the [Rebuild] path, and the
    reference the warm probe is tested against. *)

val report : t -> report
(** A snapshot of the run's accounting — pure, callable at any time;
    normally read after {!drain}. *)

(** {1 Conservation accounting}

    Every arrival the engine has ever accepted is, at any instant, in
    exactly one bucket: terminally completed / cancelled / expired /
    shed / given-up, or still pending — queued, parked in retry
    backoff, or in flight on a live circuit. The chaos harness asserts
    this after every slot. *)

type accounting = {
  a_arrivals : int;
  a_completed : int;
  a_cancelled : int;
  a_expired : int;
  a_shed : int;
  a_given_up : int;
  a_queued : int;    (** queue residents right now *)
  a_parked : int;    (** victims waiting out a retry backoff *)
  a_in_flight : int; (** live circuits (transmitting or serving) *)
}

val accounting : t -> accounting

val check_accounting : t -> (unit, string) result
(** [Ok ()] iff arrivals equal the sum of the other buckets {e and}
    every task record sits where its phase says: a queued task once in
    its home queue (and each queued id has such a record), a
    transmitting task as its processor's one circuit, each busy
    resource held by exactly one in-flight task and each idle one by
    none, and a processor requesting iff its queue is non-empty and it
    transmits nothing. A task's record is dropped when it reaches a
    terminal bucket, and none is made for one terminal on arrival. The
    pending and free counts the cycle gate reads must match the arrays
    they count. The error string names the buckets, or the misplaced
    record, for diagnosis. *)

val config : t -> Config.t

(** {1 Checkpoint / restore}

    A snapshot ([rsin-engine-checkpoint/v2]) is a self-contained JSON
    document of the complete logical engine state between slots, each
    fact written once: configuration, network health and quarantine
    flags, counters, the live tasks, the queues, the flap detector, the
    event heap (with its internal [(time, seq)] keys, so within-slot
    processing order survives the round trip), and the warm solver's
    bookkeeping. Each task carries its phase ([queued], [parked],
    [transmitting] or [serving]); a parked or in-flight task also its
    processor ([proc]); an in-flight one also its resource and commit
    slot; a transmitting one also its circuit's links; and its retry
    count and pending readmission slot when set.

    Restore derives the rest: a processor requests iff its queue is
    non-empty and it transmits nothing, a resource is busy iff an
    in-flight task holds it, and each task's event seqs are those of
    the newest events in the heap that name it (a stale event was
    pushed earlier). The warm flow graph itself is not serialized: it
    is reconstructed exactly by re-freezing each transmitting task's
    circuit, so a restored engine follows a byte-identical
    trajectory. *)

val snapshot : t -> Rsin_util.Json.t
(** Raises [Invalid_argument] if called mid-slot in [Token] mode while
    clocked faults are buffered (checkpoint only between slots). Its
    task list is the engine's task table, which holds only live tasks,
    so the cost follows the live load, not the number of tasks served. *)

val restore :
  ?obs:Rsin_obs.Obs.t ->
  ?cycle_hook:(Rsin_topology.Network.t -> cycle_info -> unit) ->
  ?event_hook:(events:int -> time:int -> unit) ->
  Rsin_topology.Network.t ->
  Rsin_util.Json.t ->
  (t, string) result
(** Rebuilds an engine from {!snapshot} output over a pristine (all-up,
    no circuits) instance of the {e same} topology the snapshot was
    taken on — name and dimensions are checked. Hooks and observer are
    re-attached fresh (they are not part of the state). A document
    whose facts conflict is an [Error] that names the conflict: a
    resource held by two in-flight tasks, a processor transmitting two
    circuits, a circuit whose links do not join its task's processor
    and resource, a parked or in-flight task with no pending event for its
    phase (a transmitting one needs both its release and, at the next
    seq, its complete), a heap event at or past the [next_seq] counter,
    a task with a service below 1 or a negative priority or retry
    count, a queued task in no queue or in two, or a document that fails
    {!check_accounting} (counters whose buckets do not sum to the
    arrivals). So is a document of another schema (a v1 document's
    error names both), an index outside the network, and a heap event
    live input could not carry: an arrival {!feed} would refuse, or a
    fault or quarantine on an element the network lacks.

    The document decodes through {!Rsin_util.Json.Decode} under its
    rule (absent or [null] is "not given"; a wrong shape is an error),
    and restore never raises: every refusal is an [Error] naming the
    path to the offending value. *)

(** {1 One-shot runs} *)

val run :
  ?obs:Rsin_obs.Obs.t ->
  ?config:Config.t ->
  ?cycle_hook:(Rsin_topology.Network.t -> cycle_info -> unit) ->
  ?event_hook:(events:int -> time:int -> unit) ->
  Rsin_topology.Network.t ->
  Rsin_sim.Workload.trace_event list ->
  report
(** Serves the trace to completion (until the event queue drains).
    Deterministic: equal inputs give equal reports. Under
    {!Priority} each pending request carries its queue head's trace
    priority, refreshed whenever the head changes. Within one
    discipline, a [Warm] cycle and a from-scratch [Rebuild] of the
    {e same} pre-commit snapshot agree on the allocation count and
    (under {!Priority}) on the total priority served — the differential
    tests pin this — though tie-broken mappings, and hence the later
    trajectories of two whole runs, may differ.

    {!Rsin_sim.Workload.Fault}/[Repair] trace events flip element health
    on the engine's network copy ({!Rsin_fault.Fault.apply}). A fault on
    an element carrying a {e transmitting} circuit tears the circuit
    down and re-queues its task at the head of its processor's queue
    (victim re-admission); a resource that goes down mid-service
    finishes the service but stays unavailable until repaired. In
    [Warm] mode a fault/repair is an O(1) capacity delta on the
    persistent graph ({!Incremental.set_link_usable}) followed by a
    re-augmentation, never a rebuild; in [Rebuild] mode the degraded
    network compiles down elements to zero capacity. Either way the
    per-cycle allocation remains maximum on the surviving subnetwork,
    and the two modes stay count-equal cycle by cycle.

    With [obs], [engine.*] registry counters accumulate the run totals
    (including [engine.faults]/[engine.repairs]/[engine.victims] and the
    [engine.readmission_wait] histogram) and every entered cycle emits
    an ["engine.cycle"] instant event (domain clock = slot) with
    pending/free/allocated/work arguments; fault events emit
    ["engine.fault"] instants. The observer is also passed down to the
    flow solver. *)
