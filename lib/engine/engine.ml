module Event_heap = Rsin_util.Event_heap
module Ring = Rsin_util.Ring
module Stats = Rsin_util.Stats
module Json = Rsin_util.Json
module D = Json.Decode
module Network = Rsin_topology.Network
module Transform1 = Rsin_core.Transform1
module Transform2 = Rsin_core.Transform2
module Workload = Rsin_sim.Workload
module Fault = Rsin_fault.Fault
module Token_sim = Rsin_distributed.Token_sim
module Solver = Rsin_flow.Solver
module Obs = Rsin_obs.Obs
module Tr = Rsin_obs.Trace
module Policy = Rsin_guard.Policy
module Retry = Rsin_guard.Retry
module Flap = Rsin_guard.Flap

type mode = Warm | Rebuild | Token

let mode_name = function Warm -> "warm" | Rebuild -> "rebuild" | Token -> "token"

let mode_of_name = function
  | "warm" -> Ok Warm
  | "rebuild" -> Ok Rebuild
  | "token" -> Ok Token
  | s -> Error (Printf.sprintf "unknown mode %S (warm|rebuild|token)" s)

type discipline = Uniform | Priority

let discipline_name = function Uniform -> "uniform" | Priority -> "priority"

let discipline_of_name = function
  | "uniform" -> Ok Uniform
  | "priority" -> Ok Priority
  | s -> Error (Printf.sprintf "unknown discipline %S (uniform|priority)" s)

module Config = struct
  type fault_plan = {
    mtbf : float;
    mttr : float;
    granularity : [ `Slot | `Clock ];
  }

  type t = {
    mode : mode;
    discipline : discipline;
    solver : string;
    transmission_time : int;
    batch_threshold : int;
    max_defer : int;
    faults : fault_plan option;
    guard : Policy.t option;
  }

  let make ?(mode = Warm) ?(discipline = Uniform) ?(solver = "dinic")
      ?(transmission_time = 1) ?(batch_threshold = 1) ?(max_defer = 16)
      ?(faults = None) ?(guard = None) () =
    if transmission_time < 1 then
      Error "Engine.Config: transmission_time must be >= 1"
    else if batch_threshold < 1 then
      Error "Engine.Config: batch_threshold must be >= 1"
    else if max_defer < 1 then Error "Engine.Config: max_defer must be >= 1"
    else if mode = Token && discipline = Priority then
      Error "Engine.Config: token mode runs the uniform discipline only"
    else
      match Solver.find solver with
      | None ->
        Error
          (Printf.sprintf "Engine.Config: unknown solver %S (known: %s)" solver
             (String.concat ", " (Solver.names ())))
      | Some _ -> (
        match faults with
        | Some { mtbf; mttr; _ } when mtbf <= 0. || mttr <= 0. ->
          Error "Engine.Config: fault mtbf and mttr must be > 0"
        | _ ->
          Ok
            { mode; discipline; solver; transmission_time; batch_threshold;
              max_defer; faults; guard })

  let v ?mode ?discipline ?solver ?transmission_time ?batch_threshold
      ?max_defer ?faults ?guard () =
    match
      make ?mode ?discipline ?solver ?transmission_time ?batch_threshold
        ?max_defer ?faults ?guard ()
    with
    | Ok t -> t
    | Error msg -> invalid_arg msg

  let default = v ()

  let granularity_name = function `Slot -> "slot" | `Clock -> "clock"

  let pp ppf t =
    Format.fprintf ppf
      "@[<h>{mode=%s;@ discipline=%s;@ solver=%s;@ transmission=%d;@ \
       threshold=%d;@ defer=%d;@ faults=%s}@]"
      (mode_name t.mode)
      (discipline_name t.discipline)
      t.solver t.transmission_time t.batch_threshold t.max_defer
      (match t.faults with
      | None -> "none"
      | Some f ->
        Printf.sprintf "{mtbf=%g; mttr=%g; granularity=%s}" f.mtbf f.mttr
          (granularity_name f.granularity));
    match t.guard with
    | None -> ()
    | Some g ->
      Format.fprintf ppf "@[<h>+guard{bound=%d;@ policy=%s;@ budget=%d}@]"
        g.Policy.queue_bound
        (Policy.shed_policy_to_string g.Policy.shed_policy)
        g.Policy.retry_budget

  let to_json t =
    Json.Obj
      [ ("mode", Json.Str (mode_name t.mode));
        ("discipline", Json.Str (discipline_name t.discipline));
        ("solver", Json.Str t.solver);
        ("transmission_time", Json.int t.transmission_time);
        ("batch_threshold", Json.int t.batch_threshold);
        ("max_defer", Json.int t.max_defer);
        ( "faults",
          match t.faults with
          | None -> Json.Null
          | Some f ->
            Json.Obj
              [ ("mtbf", Json.Num f.mtbf);
                ("mttr", Json.Num f.mttr);
                ("granularity", Json.Str (granularity_name f.granularity)) ] );
        ( "guard",
          match t.guard with None -> Json.Null | Some g -> Policy.to_json g )
      ]

  (* A field not given takes [make]'s default, and [make] re-validates;
     a field given with the wrong shape is an error, not a silent
     default: a config that decodes must mean what it says. *)
  let of_json j =
    Result.join
    @@ D.run ~what:"Engine.Config" (fun () ->
           let named k of_name = D.opt k (fun v -> D.ok (of_name (D.str v))) j in
           let int k = D.opt k D.int j in
           let fault_plan fj =
             { mtbf = D.field "mtbf" D.num fj;
               mttr = D.field "mttr" D.num fj;
               granularity =
                 (match D.opt "granularity" D.str fj with
                 | None | Some "slot" -> `Slot
                 | Some "clock" -> `Clock
                 | Some g -> D.fail "unknown granularity %S" g) }
           in
           make ?mode:(named "mode" mode_of_name)
             ?discipline:(named "discipline" discipline_of_name)
             ?solver:(D.opt "solver" D.str j)
             ?transmission_time:(int "transmission_time")
             ?batch_threshold:(int "batch_threshold")
             ?max_defer:(int "max_defer")
             ~faults:(D.opt "faults" fault_plan j)
             ~guard:(D.opt "guard" (fun v -> D.ok (Policy.of_json v)) j)
             ())
end

type cycle_info = {
  time : int;
  requests : int list;
  free : int list;
  request_priorities : (int * int) list;
  mapping : (int * int) list;
  allocated : int;
  work : int;
  skipped : bool;
}

type report = {
  mode : mode;
  horizon : int;
  arrivals : int;
  allocated : int;
  completed : int;
  cancelled : int;
  expired : int;
  left_pending : int;
  mean_wait : float;
  max_wait : int;
  throughput : float;
  utilization : float;
  cycles : int;
  skipped_cycles : int;
  solver_work : int;
  faults : int;
  repairs : int;
  victims : int;
  mean_readmission : float;
  shed : int;
  given_up : int;
  retries : int;
  quarantines : int;
}

(* Internal events. Trace arrivals/cancels are fed from outside; the
   engine schedules releases, completions, deadline expiries and
   deferred-batch wakeups as it runs. The heap holds them encoded as
   ints (see [encode] below); this variant is their decoded form, which
   checkpoints write and read. Every event the engine schedules for a
   task names the task; it acts only while the task's record still
   waits for that event's seq (see [task]). *)
type ev =
  | Ev_arrive of {
      id : int;
      proc : int;
      service : int;
      deadline : int option;
      priority : int;
    }
  | Ev_cancel of int
  | Ev_release of int   (* task id: transmission done *)
  | Ev_complete of int  (* task id: service done *)
  | Ev_fault of Fault.event * int option  (* optional intra-cycle clock *)
  | Ev_deadline of int  (* task id *)
  | Ev_wake
  | Ev_retry of int  (* task id: backoff elapsed, re-admit (guard) *)
  | Ev_unquarantine of Fault.element  (* cooling-off over (guard) *)

(* Where a live task is. Queued: in [home]'s queue. Parked: a fault
   victim waiting out its backoff, to be re-queued at [home] (guard).
   Transmitting: its circuit holds links from [home] to [res], and its
   id sits in [home]'s slot of [tx_task] (in Warm mode its arcs sit in
   [home]'s slot of the warm graph, Incremental.holds). Serving: the
   links are free again, [res] stays busy until the task completes. *)
type phase = Queued | Parked | Transmitting | Serving

(* The one record of a live task: [tasks] holds it from admission until
   the task completes, is cancelled, expires, is shed or is given up.

   [seq] is the heap seq of the event the phase waits for: the retry
   while parked, the release while transmitting, the complete while
   serving. Commit pushes the release and then the complete, so the
   complete's seq is the release's plus one. [deadline_seq] is the seq
   of the task's deadline event. An event acts on the task only when
   the phase matches and the seq is the record's, so an event that
   outlived its purpose (a teardown moved the task on, or the id now
   names a later task) is a no-op. *)
type task = {
  arrival : int;
  service : int;
  priority : int;
  deadline : int option;
  mutable phase : phase;
  mutable home : int;
  mutable res : int;           (* in flight: the resource it holds *)
  mutable committed_at : int;  (* in flight *)
  mutable net_id : int;        (* transmitting: its Network circuit *)
  mutable retries : int;       (* teardowns so far (guard) *)
  mutable victim_at : int;     (* last teardown awaiting readmission *)
  mutable seq : int;
  mutable deadline_seq : int;
}

(* What [victim_at] holds when no readmission is pending, [seq] and
   [deadline_seq] when no event is awaited, and an empty [tx_task] slot.
   It is no slot (feed refuses every event at or before [served_upto],
   which starts at [min_int]), no seq (seqs count up from 0, and a
   checkpoint's ints stop at 2^53) and no task id (ids stay within
   [id_fits]). *)
let none = min_int

(* The whole former body of [run], hoisted into a record so a
   long-running serve loop can interleave feeding and advancing. *)
type t = {
  cfg : Config.t;
  obs : Obs.t option;
  cycle_hook : (Network.t -> cycle_info -> unit) option;
  event_hook : (events:int -> time:int -> unit) option;
  net : Network.t;
  np : int;
  nr : int;
  inc : Incremental.t option;
  solver_mod : (module Rsin_flow.Solver.S);
      (* registry solver for Rebuild+Uniform cycles *)
  (* Engine-visible scheduling state. In Warm mode [requesting] and the
     effective resource freedom (idle && up) mirror the incremental
     graph's switched-on endpoint arcs (committed circuits' frozen arcs
     count as neither). [res_idle] tracks service occupancy only;
     health lives on the network copy, so a resource that goes down
     mid-service simply stays unavailable after completing. *)
  requesting : bool array;
  res_idle : bool array;
  (* [n_pending] counts the requesting processors and [n_free] the
     resources [counted_free] marks, kept equal to [res_free] wherever
     idleness or health changes: the cycle gate reads the counts, and
     only a hook, Rebuild or Token builds the lists. *)
  mutable n_pending : int;
  mutable n_free : int;
  counted_free : bool array;
  queues : Ring.t array;               (* task ids, FIFO *)
  (* Processor -> the task it transmits, [none] when none.
     apply_fault scans it in processor order, so victims are torn down,
     and their retries numbered, in an order the state defines. *)
  tx_task : int array;
  tasks : (int, task) Hashtbl.t;
  heap : Event_heap.t;
  (* Arrivals waiting in the heap, [arrival_width] ints a slot: id,
     processor, service, priority, deadline, and 1 when there is a
     deadline. Free slots are chained through their first int from
     [slab_free] (-1: none). *)
  mutable slab : int array;
  mutable slab_free : int;
  (* The rare events whose payload is no int: faults and
     unquarantines, keyed by [next_side]. *)
  side : (int, ev) Hashtbl.t;
  mutable next_side : int;
  mutable next_seq : int;
  mutable arrivals : int;
  mutable allocated : int;
  mutable completed : int;
  mutable cancelled : int;
  mutable expired : int;
  mutable cycles : int;
  mutable skipped_cycles : int;
  mutable solver_work : int;
  mutable faults : int;
  mutable repairs : int;
  mutable victims : int;
  (* Token mode: clocked down-faults of the current slot, buffered until
     the slot's scheduling cycle runs them mid-cycle (chronological
     order). Entries the cycle never reached — or that arrive in a slot
     without a cycle — are applied at the end of the slot. *)
  mutable mid_buffer : (int * Fault.element) list;
  readmissions : Stats.accum;
  (* Guard state — all empty/zero when cfg.guard = None, in which case
     the engine behaves exactly as it did before the guard layer.
     [flap] is mutable only so checkpoint restore can swap in the
     deserialized detector. *)
  mutable flap : Flap.t option;
  mutable shed : int;
  mutable given_up : int;
  mutable retries : int;
  mutable quarantines : int;
  mutable busy_slots : int;
  mutable horizon : int;
  waits : Stats.accum;
  mutable max_wait : int;
  tracing : bool;
  mutable events_seen : int;
  mutable served_upto : int;
}

(* --- The event heap's encoding ----------------------------------------------

   Payload above four kind bits: an arrival's slot in [slab], a
   task id, or a [side] key. Task ids stay within
   [id_fits] (Engine.feed refuses the others), so every payload
   survives the shift. *)

type kind =
  | K_arrive
  | K_cancel
  | K_release
  | K_complete
  | K_fault
  | K_deadline
  | K_wake
  | K_retry
  | K_unquarantine

let kind_of_code =
  [| K_arrive; K_cancel; K_release; K_complete; K_fault; K_deadline; K_wake;
     K_retry; K_unquarantine |]

let encode kind payload =
  let k =
    match kind with
    | K_arrive -> 0
    | K_cancel -> 1
    | K_release -> 2
    | K_complete -> 3
    | K_fault -> 4
    | K_deadline -> 5
    | K_wake -> 6
    | K_retry -> 7
    | K_unquarantine -> 8
  in
  (payload lsl 4) lor k

let kind code = kind_of_code.(code land 15)
let payload code = code asr 4
let id_fits id = (id lsl 4) asr 4 = id

let next_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let push_code t time code = Event_heap.add t.heap ~time ~seq:(next_seq t) code

let arrival_width = 6

(* Files an arrival in a free slot, doubling the slab when none is
   left, and returns the slot. *)
let store_arrival t ~id ~proc ~service ~priority deadline =
  if t.slab_free < 0 then begin
    let n = Array.length t.slab / arrival_width in
    let m = if n = 0 then 64 else 2 * n in
    let slab = Array.make (m * arrival_width) 0 in
    Array.blit t.slab 0 slab 0 (Array.length t.slab);
    for i = n to m - 1 do
      slab.(i * arrival_width) <- (if i = m - 1 then -1 else i + 1)
    done;
    t.slab <- slab;
    t.slab_free <- n
  end;
  let i = t.slab_free in
  let b = i * arrival_width in
  t.slab_free <- t.slab.(b);
  t.slab.(b) <- id;
  t.slab.(b + 1) <- proc;
  t.slab.(b + 2) <- service;
  t.slab.(b + 3) <- priority;
  (match deadline with
  | Some d ->
    t.slab.(b + 4) <- d;
    t.slab.(b + 5) <- 1
  | None -> t.slab.(b + 5) <- 0);
  i

let free_arrival t i =
  t.slab.(i * arrival_width) <- t.slab_free;
  t.slab_free <- i

let store_side t ev =
  let key = t.next_side in
  t.next_side <- key + 1;
  Hashtbl.replace t.side key ev;
  key

let take_side t key =
  let ev = Hashtbl.find t.side key in
  Hashtbl.remove t.side key;
  ev

(* The heap payload [ev] encodes to, filing what an int cannot hold. *)
let code_of t = function
  | Ev_arrive { id; proc; service; deadline; priority } ->
    encode K_arrive (store_arrival t ~id ~proc ~service ~priority deadline)
  | Ev_cancel id -> encode K_cancel id
  | Ev_release id -> encode K_release id
  | Ev_complete id -> encode K_complete id
  | Ev_deadline id -> encode K_deadline id
  | Ev_wake -> encode K_wake 0
  | Ev_retry id -> encode K_retry id
  | Ev_fault _ as ev -> encode K_fault (store_side t ev)
  | Ev_unquarantine _ as ev -> encode K_unquarantine (store_side t ev)

let push t time ev = push_code t time (code_of t ev)

(* The event a heap payload stands for, without consuming it (cold:
   checkpoints). *)
let decode t code =
  let i = payload code in
  match kind code with
  | K_arrive ->
    let a = t.slab and b = i * arrival_width in
    Ev_arrive
      { id = a.(b); proc = a.(b + 1); service = a.(b + 2);
        priority = a.(b + 3);
        deadline = (if a.(b + 5) = 1 then Some a.(b + 4) else None) }
  | K_cancel -> Ev_cancel i
  | K_release -> Ev_release i
  | K_complete -> Ev_complete i
  | K_deadline -> Ev_deadline i
  | K_wake -> Ev_wake
  | K_retry -> Ev_retry i
  | K_fault | K_unquarantine -> Hashtbl.find t.side i

let res_free t r = t.res_idle.(r) && Network.res_available t.net r

let transmitting t p = t.tx_task.(p) <> none

(* Re-counts resource r after its idleness or health may have changed. *)
let count_res t r =
  let f = res_free t r in
  if f <> t.counted_free.(r) then begin
    t.counted_free.(r) <- f;
    t.n_free <- (if f then t.n_free + 1 else t.n_free - 1)
  end

(* The pending request of a processor stands for its queue head; under
   the priority discipline the warm graph files the head's priority
   with the request, so it must be refreshed whenever the head changes
   while the request stays pending (a cancel or expiry of the old
   head). *)
let head_priority t p =
  let q = t.queues.(p) in
  if Ring.is_empty q then 0 else (Hashtbl.find t.tasks (Ring.front q)).priority

let set_requesting t p on =
  let changed = t.requesting.(p) <> on in
  if changed then t.n_pending <- (if on then t.n_pending + 1 else t.n_pending - 1);
  t.requesting.(p) <- on;
  match t.inc with
  | Some i ->
    if changed || (t.cfg.Config.discipline = Priority && on) then
      Incremental.set_requesting i ~priority:(head_priority t p) p on
  | None -> ()

(* Push resource r's effective freedom (idle && healthy) down to the
   warm graph. Never called while the rt arc is frozen: during
   transmission the resource counts as busy via the frozen flow, and
   teardown/release thaw the arc before any sync. *)
let sync_res t r =
  count_res t r;
  match t.inc with
  | Some i -> Incremental.set_resource_free i r (res_free t r)
  | None -> ()

let create ?obs ?(config = Config.default) ?cycle_hook ?event_hook net =
  let net = Network.copy net in
  let np = Network.n_procs net and nr = Network.n_res net in
  let inc =
    match config.Config.mode with
    | Warm ->
      let d =
        match config.Config.discipline with
        | Uniform -> Incremental.Maxflow
        | Priority -> Incremental.Priority
      in
      Some (Incremental.create ~discipline:d net)
    | Rebuild | Token -> None
  in
  let solver_mod = Solver.get config.Config.solver in
  let t =
    { cfg = config; obs; cycle_hook; event_hook; net; np; nr; inc; solver_mod;
      requesting = Array.make np false;
      res_idle = Array.make nr true;
      n_pending = 0; n_free = 0;
      counted_free = Array.make nr false;
      queues = Array.init np (fun _ -> Ring.create ());
      tx_task = Array.make np none;
      tasks = Hashtbl.create 256;
      heap = Event_heap.create ();
      slab = [||];
      slab_free = -1;
      side = Hashtbl.create 16;
      next_side = 0;
      next_seq = 0;
      arrivals = 0; allocated = 0; completed = 0; cancelled = 0; expired = 0;
      cycles = 0; skipped_cycles = 0; solver_work = 0;
      faults = 0; repairs = 0; victims = 0;
      mid_buffer = [];
      readmissions = Stats.accum ();
      flap = Option.map Flap.create config.Config.guard;
      shed = 0; given_up = 0; retries = 0; quarantines = 0;
      busy_slots = 0; horizon = 0;
      waits = Stats.accum (); max_wait = 0;
      tracing = Obs.tracing obs;
      events_seen = 0;
      served_upto = min_int }
  in
  for r = 0 to nr - 1 do sync_res t r done;
  t

(* What an arrival must satisfy before it may enter the event heap,
   from a trace or from a checkpoint. *)
let arrival_error ~np ~proc ~service ~priority =
  if proc < 0 || proc >= np then Some "bad processor"
  else if service < 1 then Some "bad service time"
  else if priority < 0 then Some "bad priority"
  else None

(* Why a trace arrival is refused, if it is. *)
let trace_arrival_error ~np ~id ~proc ~service ~priority =
  match arrival_error ~np ~proc ~service ~priority with
  | Some m -> Some (m ^ " in trace")
  | None -> if id_fits id then None else Some "task id out of range in trace"

let event_error net = function
  | Workload.Arrive { id; proc; service; priority; _ } ->
    trace_arrival_error ~np:(Network.n_procs net) ~id ~proc ~service ~priority
  | Workload.Cancel { id; _ } ->
    if id_fits id then None else Some "task id out of range in trace"
  | Workload.Fault { element; _ } | Workload.Repair { element; _ } ->
    if Fault.in_range net element then None
    else Some "fault element out of range"

let check_time t time =
  if time <= t.served_upto then
    invalid_arg "Engine.feed: event at or before an already-served slot"

let feed_arrival t ~time ~id ~proc ~service ~priority ~deadline =
  check_time t time;
  (match trace_arrival_error ~np:t.np ~id ~proc ~service ~priority with
  | Some m -> invalid_arg ("Engine.feed: " ^ m)
  | None -> ());
  push_code t time
    (encode K_arrive (store_arrival t ~id ~proc ~service ~priority deadline))

let check_event t time ev =
  check_time t time;
  Option.iter (fun m -> invalid_arg ("Engine.feed: " ^ m)) (event_error t.net ev)

let feed t ev =
  match ev with
  | Workload.Arrive { t = time; id; proc; service; deadline; priority } ->
    feed_arrival t ~time ~id ~proc ~service ~priority ~deadline
  | Workload.Cancel { t = time; id } ->
    check_event t time ev;
    push_code t time (encode K_cancel id)
  | Workload.Fault { t = time; clock; element } ->
    check_event t time ev;
    push t time (Ev_fault (Fault.down_of element, clock))
  | Workload.Repair { t = time; clock = _; element } ->
    check_event t time ev;
    (* Repairs always apply at the cycle boundary (Workload doc). *)
    push t time (Ev_fault (Fault.up_of element, None))

(* Retire a task still waiting for service, queued or parked (a cancel
   or a deadline expiry), with its record. A parked task's pending retry
   becomes a no-op. *)
let drop_waiting t id task =
  Hashtbl.remove t.tasks id;
  match task.phase with
  | Queued ->
    let p = task.home in
    let q = t.queues.(p) in
    if Ring.remove q id then begin
      if Ring.is_empty q then set_requesting t p false
      else if t.requesting.(p) then
        (* Same request, possibly a new head: refresh its priority. *)
        set_requesting t p true
    end
  | Parked | Transmitting | Serving -> ()

(* Queue [task] at the head of its home processor's queue: a
   re-admitted fault victim, ahead of every task that arrived while it
   was transmitting. *)
let requeue_front t id task =
  task.phase <- Queued;
  Ring.push_front t.queues.(task.home) id

(* Tear down a circuit still in transmission because a fault severed
   one of its links: release the circuit (net + warm graph), return
   the interrupted task to the head of its queue, and undo the busy
   slots it will no longer consume. The task leaves the transmitting
   phase, so its already-queued release and complete become no-ops. *)
let teardown t now id task =
  let p = task.home in
  Network.release t.net task.net_id;
  (match t.inc with Some i -> Incremental.release i p | None -> ());
  t.victims <- t.victims + 1;
  t.busy_slots <-
    t.busy_slots
    - (task.committed_at + t.cfg.Config.transmission_time + task.service - now);
  t.res_idle.(task.res) <- true;
  (* The task's complete is now a no-op, so re-enable the resource's
     endpoint arc here (a no-op when the fault that killed the circuit
     is the resource itself: health was flipped before the teardown, so
     res_free is already false). *)
  sync_res t task.res;
  t.tx_task.(p) <- none;
  match t.cfg.Config.guard with
  | None ->
    requeue_front t id task;
    task.victim_at <- now;
    set_requesting t p true
  | Some g ->
    (* Backoff re-admission: park the victim and schedule a retry after
       a capped-exponential, deterministically jittered delay — or give
       the task up once its retry budget is spent. The home processor
       may still request on behalf of its remaining queue. *)
    let attempts = task.retries in
    if attempts >= g.Policy.retry_budget then begin
      t.given_up <- t.given_up + 1;
      Hashtbl.remove t.tasks id;
      Obs.count t.obs "engine.guard.given_up" 1
    end
    else begin
      task.retries <- attempts + 1;
      task.phase <- Parked;
      task.victim_at <- now;
      let d = Retry.delay g ~task_id:id ~attempt:attempts in
      task.seq <- t.next_seq;
      push_code t (now + d) (encode K_retry id);
      t.retries <- t.retries + 1;
      Obs.count t.obs "engine.guard.retries" 1
    end;
    if not (Ring.is_empty t.queues.(p)) then set_requesting t p true

let set_elt_quarantined net e q =
  match e with
  | Fault.Link l -> Network.set_link_quarantined net l q
  | Fault.Box b -> Network.set_box_quarantined net b q
  | Fault.Res r -> Network.set_res_quarantined net r q

(* Re-derives each free link the element touches from the network's
   usable mask, and a resource port's arc: a repair or a lifted
   quarantine must not re-enable a link still masked by another down
   element or held by a pre-established circuit. *)
let resync_element t e =
  (match t.inc with
  | Some i ->
    List.iter
      (fun l ->
        if Network.link_state t.net l = Network.Free then
          Incremental.set_link_usable i l (Network.usable t.net l))
      (Fault.affected_links t.net e)
  | None -> ());
  match e with Fault.Res r -> sync_res t r | Fault.Link _ | Fault.Box _ -> ()

let apply_fault t now fev =
  let element = Fault.element fev in
  Fault.apply t.net fev;
  if Fault.is_down fev then begin
    t.faults <- t.faults + 1;
    (* Kill circuits transmitting through the dead element first so
       their frozen arcs are thawed before the capacity mask lands. *)
    let dead = Fault.victims t.net element in
    if dead <> [] then
      for p = 0 to t.np - 1 do
        let id = t.tx_task.(p) in
        if id <> none then begin
          let task = Hashtbl.find t.tasks id in
          if List.mem task.net_id dead then teardown t now id task
        end
      done;
    (* Flap detection: the k-th fault within the window quarantines the
       element for a cooling-off period — it stays out of every usable
       mask even across repairs, until Ev_unquarantine lifts it. The
       masks need no update here: the element is down right now, so
       every affected link is already unusable; the flag only has to
       outlive the next repair, which re-derives from Network.usable. *)
    match t.flap with
    | Some fl ->
      (match Flap.record_fault fl ~now element with
      | Some until ->
        set_elt_quarantined t.net element true;
        t.quarantines <- t.quarantines + 1;
        push t until (Ev_unquarantine element);
        Obs.count t.obs "engine.guard.quarantines" 1;
        if t.tracing then
          Obs.instant t.obs "engine.quarantine" ~ts:now
            ~args:
              [ ("element", Tr.Str (Fault.element_name element));
                ("until", Tr.Int until) ]
      | None -> ())
    | None -> ()
  end
  else t.repairs <- t.repairs + 1;
  resync_element t element;
  if t.tracing then
    Obs.instant t.obs "engine.fault" ~ts:now
      ~args:
        [ ("event", Tr.Str (if Fault.is_down fev then "down" else "up"));
          ("element", Tr.Str (Fault.element_name element));
          ("victims", Tr.Int t.victims) ]

let shed_one t =
  t.shed <- t.shed + 1;
  Obs.count t.obs "engine.guard.shed" 1

let admit t now ~id ~proc ~service ~priority deadline =
  let task =
    { arrival = now; service; priority; deadline; phase = Queued; home = proc;
      res = -1; committed_at = 0; net_id = -1; retries = 0;
      victim_at = none; seq = none; deadline_seq = none }
  in
  Hashtbl.replace t.tasks id task;
  Ring.push_back t.queues.(proc) id;
  if not (transmitting t proc) then set_requesting t proc true;
  (match deadline with
  | Some d ->
    task.deadline_seq <- t.next_seq;
    push_code t d (encode K_deadline id)
  | None -> ());
  if t.cfg.Config.batch_threshold > 1 then
    push_code t (now + t.cfg.Config.max_defer) (encode K_wake 0)

(* Admission control: the pending queue is full, something must be
   shed before the newcomer can sit down. *)
let admit_full t now ~id ~proc ~service ~priority deadline g =
  match g.Policy.shed_policy with
  | Policy.Drop_tail -> shed_one t
  | Policy.Deadline_aware ->
    (* Shed the pending task (newcomer included) with the least
       remaining deadline slack — the one most likely to expire
       unserved anyway. No-deadline tasks count as infinite slack; ties
       shed the newest, so the newcomer loses ties and queue order
       stays stable. *)
    let slack = function Some d -> d - now | None -> max_int in
    let q = t.queues.(proc) in
    (* The newcomer stands at index [Ring.length q]. *)
    let best_slack = ref (slack deadline) in
    let best_rec = ref (Ring.length q) in
    for i = 0 to Ring.length q - 1 do
      let s = slack (Hashtbl.find t.tasks (Ring.get q i)).deadline in
      if s < !best_slack || (s = !best_slack && i > !best_rec) then begin
        best_slack := s;
        best_rec := i
      end
    done;
    if !best_rec = Ring.length q then shed_one t
    else begin
      let victim = Ring.get q !best_rec in
      Hashtbl.remove t.tasks victim;
      ignore (Ring.remove q victim);
      shed_one t;
      admit t now ~id ~proc ~service ~priority deadline;
      (* Shedding the head changes the pending request's task: refresh
         its priority on the source arc. *)
      if t.requesting.(proc) then set_requesting t proc true
    end

let arrive t now i =
  let a = t.slab and b = i * arrival_width in
  let id = a.(b) and proc = a.(b + 1) and service = a.(b + 2) in
  let priority = a.(b + 3) and d = a.(b + 4) and has_deadline = a.(b + 5) = 1 in
  free_arrival t i;
  t.arrivals <- t.arrivals + 1;
  (* A task terminal on arrival gets no record: [tasks] holds only
     queued, parked and in-flight tasks. *)
  if Hashtbl.mem t.tasks id then
    (* The id still names a live task: refuse the newcomer rather than
       overwrite the live record. *)
    shed_one t
  else if has_deadline && d <= now then
    (* Dead on arrival: the deadline is already past, so the task
       expires immediately — it must not sit in the queue forever (and
       certainly must not be served). *)
    t.expired <- t.expired + 1
  else
    let deadline = if has_deadline then Some d else None in
    match t.cfg.Config.guard with
    | Some g
      when g.Policy.queue_bound > 0
           && Ring.length t.queues.(proc) >= g.Policy.queue_bound ->
      admit_full t now ~id ~proc ~service ~priority deadline g
    | Some _ | None -> admit t now ~id ~proc ~service ~priority deadline

(* The engine's own events for task [id]: each acts only on a record
   whose phase waits for it and whose [seq] is the popped one. *)

let release t seq id =
  match Hashtbl.find t.tasks id with
  | { phase = Transmitting; seq = s; _ } as task when s = seq ->
    let p = task.home in
    task.phase <- Serving;
    task.seq <- seq + 1;
    Network.release t.net task.net_id;
    (match t.inc with Some i -> Incremental.release i p | None -> ());
    t.tx_task.(p) <- none;
    if not (Ring.is_empty t.queues.(p)) then set_requesting t p true;
    true
  | _ -> false
  | exception Not_found -> false

let complete t seq id =
  match Hashtbl.find t.tasks id with
  | { phase = Serving; seq = s; res; _ } when s = seq ->
    Hashtbl.remove t.tasks id;
    t.completed <- t.completed + 1;
    t.res_idle.(res) <- true;
    sync_res t res;
    true
  | _ -> false
  | exception Not_found -> false

let retry t seq id =
  match Hashtbl.find t.tasks id with
  | { phase = Parked; seq = s; home; _ } as task when s = seq ->
    (* Backoff elapsed: re-admit at the queue head, like the unguarded
       path — but only now, so a flapping element stops seeing the same
       victim every cycle. *)
    requeue_front t id task;
    if not (transmitting t home) then set_requesting t home true;
    true
  | _ -> false
  | exception Not_found -> false

(* A cancel comes from the trace, not the engine, so it names no seq:
   it retires the task if the task still waits for service. *)
let cancel t id =
  match Hashtbl.find t.tasks id with
  | { phase = Queued | Parked; _ } as task ->
    drop_waiting t id task;
    t.cancelled <- t.cancelled + 1;
    true
  | _ -> false
  | exception Not_found -> false

let expire t seq id =
  match Hashtbl.find t.tasks id with
  | { phase = Queued | Parked; deadline_seq = s; _ } as task when s = seq ->
    drop_waiting t id task;
    t.expired <- t.expired + 1;
    true
  | _ -> false
  | exception Not_found -> false

(* Returns true when the event changed engine state (used for the
   measured horizon: trailing no-op deadline checks and wakeups do not
   extend it). [seq] is the event's heap seq. *)
let process t now seq code =
  let i = payload code in
  match kind code with
  | K_arrive ->
    arrive t now i;
    true
  | K_cancel -> cancel t i
  | K_deadline -> expire t seq i
  | K_release -> release t seq i
  | K_complete -> complete t seq i
  | K_retry -> retry t seq i
  | K_fault ->
    (match take_side t i with
    | Ev_fault (fev, Some clk) when t.cfg.Config.mode = Token && Fault.is_down fev
      ->
      t.mid_buffer <- t.mid_buffer @ [ (clk, Fault.element fev) ]
    | Ev_fault (fev, _) -> apply_fault t now fev
    | _ -> assert false);
    true
  | K_unquarantine ->
    (match take_side t i with
    | Ev_unquarantine e ->
      (match t.flap with Some fl -> Flap.release fl e | None -> ());
      set_elt_quarantined t.net e false;
      (* The element may still be masked by a genuinely down neighbour. *)
      resync_element t e
    | _ -> assert false);
    true
  | K_wake -> false

let commit t now p r links =
  let net_id = Network.establish t.net links in
  let id = Ring.pop_front t.queues.(p) in
  let task = Hashtbl.find t.tasks id in
  task.phase <- Transmitting;
  task.res <- r;
  task.committed_at <- now;
  task.net_id <- net_id;
  let w = now - task.arrival in
  Stats.observe t.waits (float_of_int w);
  if w > t.max_wait then t.max_wait <- w;
  if task.victim_at <> none then begin
    let wait = float_of_int (now - task.victim_at) in
    task.victim_at <- none;
    Stats.observe t.readmissions wait;
    Obs.observe t.obs "engine.readmission_wait" wait
  end;
  t.tx_task.(p) <- id;
  (* Set directly, not via set_requesting/sync_res: in Warm mode the
     endpoint arcs are frozen with unit flow, not switched off. *)
  if t.requesting.(p) then t.n_pending <- t.n_pending - 1;
  t.requesting.(p) <- false;
  t.res_idle.(r) <- false;
  count_res t r;
  (* The release takes [task.seq]; the complete, pushed next, the one
     after it. *)
  task.seq <- t.next_seq;
  push_code t (now + t.cfg.Config.transmission_time) (encode K_release id);
  push_code t
    (now + t.cfg.Config.transmission_time + task.service)
    (encode K_complete id);
  t.busy_slots <- t.busy_slots + t.cfg.Config.transmission_time + task.service;
  t.allocated <- t.allocated + 1

(* The longest wait among the pending queue heads of processors [p]
   and up. *)
let rec oldest_age t now p acc =
  if p >= t.np then acc
  else
    let q = t.queues.(p) in
    if t.requesting.(p) && not (Ring.is_empty q) then
      let age = now - (Hashtbl.find t.tasks (Ring.front q)).arrival in
      oldest_age t now (p + 1) (if age > acc then age else acc)
    else oldest_age t now (p + 1) acc

(* The batching gate, on the kept counts; the oldest head is looked up
   only when the threshold alone does not open the cycle. *)
let cycle_due t ~now =
  t.n_pending > 0 && t.n_free > 0
  &&
  let th = t.cfg.Config.batch_threshold in
  (t.n_pending >= th && t.n_free >= Int.min th t.n_pending)
  || oldest_age t now 0 0 >= t.cfg.Config.max_defer

let pending_list t = List.filter (fun p -> t.requesting.(p)) (List.init t.np Fun.id)
let free_list t = List.filter (res_free t) (List.init t.nr Fun.id)

let cycle_info t now ~requests ~free ~mapping ~work ~skipped =
  { time = now; requests; free;
    request_priorities = List.map (fun p -> (p, head_priority t p)) requests;
    mapping; allocated = List.length mapping; work; skipped }

let trace_cycle t now ~n_pending ~n_free ~allocated ~work ~skipped =
  if t.tracing then
    Obs.instant t.obs "engine.cycle" ~ts:now
      ~args:
        [ ("pending", Tr.Int n_pending); ("free", Tr.Int n_free);
          ("allocated", Tr.Int allocated); ("work", Tr.Int work);
          ("skipped", Tr.Bool skipped) ]

(* A Warm cycle: one warm augment, whose circuits wait in the warm
   graph's slots; the lists are built only for a hook. Solving changes
   no engine array, so the counts and lists read after it are those the
   cycle entered with. *)
let warm_cycle t now i =
  let n = Incremental.solve ?obs:t.obs i in
  let work = Incremental.last_work i and skipped = Incremental.last_skipped i in
  t.solver_work <- t.solver_work + work;
  if skipped then t.skipped_cycles <- t.skipped_cycles + 1;
  (match t.cycle_hook with
  | Some hook ->
    let mapping =
      List.init n (fun k ->
          let p = Incremental.found i k in
          (p, Incremental.circuit_res i p))
    in
    hook t.net
      (cycle_info t now ~requests:(pending_list t) ~free:(free_list t) ~mapping
         ~work ~skipped)
  | None -> ());
  trace_cycle t now ~n_pending:t.n_pending ~n_free:t.n_free ~allocated:n ~work
    ~skipped;
  for k = 0 to n - 1 do
    let p = Incremental.found i k in
    commit t now p (Incremental.circuit_res i p) (Incremental.circuit_links i p)
  done

(* A Rebuild or Token cycle, scheduled from the lists. *)
let list_cycle t now =
  let pending = pending_list t and free = free_list t in
  let obs = t.obs in
  let committed, work =
    match t.cfg.Config.mode with
    | Warm -> assert false
    | Token ->
      (* Run the cycle on the distributed token architecture, with this
         slot's buffered clocked faults injected mid-cycle. The protocol
         self-recovers (watchdogs, iteration aborts, bounded retries),
         so the committed allocation is maximum on whatever subnetwork
         survives the cycle. *)
      let buffer = t.mid_buffer in
      t.mid_buffer <- [];
      let mid_of = function
        | Fault.Link l -> Token_sim.Dead_link l
        | Fault.Box b -> Token_sim.Dead_box b
        | Fault.Res r -> Token_sim.Dead_res r
      in
      let schedule = List.map (fun (clk, el) -> (clk, mid_of el)) buffer in
      let rep = Token_sim.run ?obs ~faults:schedule t.net ~requests:pending ~free in
      (* Faults the cycle actually reached are applied to the network
         now — before the hook, so a differential reference
         re-schedules exactly the degraded subnetwork the surviving
         tokens ran on. Entries past the cycle's last clock stay
         buffered for the end-of-slot flush. *)
      let remaining = ref rep.Token_sim.applied_faults in
      let fired, leftover =
        List.partition
          (fun (clk, el) ->
            let key = (clk, mid_of el) in
            let rec drop = function
              | [] -> None
              | x :: tl when x = key -> Some tl
              | x :: tl -> Option.map (fun tl -> x :: tl) (drop tl)
            in
            match drop !remaining with
            | Some rest ->
              remaining := rest;
              true
            | None -> false)
          buffer
      in
      List.iter (fun (_clk, el) -> apply_fault t now (Fault.down_of el)) fired;
      t.mid_buffer <- leftover;
      ( List.map
          (fun (p, r) -> (p, r, List.assoc p rep.Token_sim.circuits))
          rep.Token_sim.mapping,
        rep.Token_sim.total_clocks )
    | Rebuild -> (
      match t.cfg.Config.discipline with
      | Uniform ->
        let tr = Transform1.build t.net ~requests:pending ~free in
        let o = Transform1.solve_with ?obs t.solver_mod tr in
        let _nodes, arcs = Transform1.size tr in
        ( List.map2
            (fun (p, r) (_p, links) -> (p, r, links))
            o.Transform1.mapping o.Transform1.circuits,
          Network.n_links t.net + arcs + o.Transform1.arcs_scanned )
      | Priority ->
        let tr =
          Transform2.build t.net
            ~requests:(List.map (fun p -> (p, head_priority t p)) pending)
            ~free:(List.map (fun r -> (r, 0)) free)
        in
        let o = Transform2.solve ?obs tr in
        let _nodes, arcs = Transform2.size tr in
        ( List.map2
            (fun (p, r) (_p, links) -> (p, r, links))
            o.Transform2.mapping o.Transform2.circuits,
          Network.n_links t.net + arcs + o.Transform2.arcs_scanned ))
  in
  t.solver_work <- t.solver_work + work;
  (match t.cycle_hook with
  | Some hook ->
    hook t.net
      (cycle_info t now ~requests:pending ~free
         ~mapping:(List.map (fun (p, r, _) -> (p, r)) committed)
         ~work ~skipped:false)
  | None -> ());
  trace_cycle t now ~n_pending:(List.length pending) ~n_free:(List.length free)
    ~allocated:(List.length committed) ~work ~skipped:false;
  List.iter (fun (p, r, links) -> commit t now p r links) committed

let try_cycle t now =
  if cycle_due t ~now then begin
    t.cycles <- t.cycles + 1;
    match t.inc with Some i -> warm_cycle t now i | None -> list_cycle t now
  end

(* Whether a heap event came from the trace: an arrival, a cancel, a
   fault or a repair. The rest (releases, completions, deadline checks,
   wakes, retries, unquarantines) the engine scheduled itself. *)
let from_trace code =
  match kind code with
  | K_arrive | K_cancel | K_fault -> true
  | K_release | K_complete | K_deadline | K_wake | K_retry | K_unquarantine ->
    false

(* One simulated slot: every queued event at the earliest time, the
   cycle it may trigger, the Token-mode end-of-slot fault flush, and the
   event-hook pulse, which counts the trace events consumed. Processing
   never schedules an event at [now] (every delay is at least one slot),
   so the loop pops exactly the slot's batch, in (time, seq) order. *)
let step_slot t =
  let now = Event_heap.min_time t.heap in
  let substantive = ref false and events = ref 0 in
  while (not (Event_heap.is_empty t.heap)) && Event_heap.min_time t.heap = now do
    let seq = Event_heap.min_seq t.heap in
    let code = Event_heap.pop t.heap in
    if from_trace code then incr events;
    if process t now seq code then substantive := true
  done;
  if !substantive && now > t.horizon then t.horizon <- now;
  try_cycle t now;
  (* Token mode: clocked faults the slot's cycle never consumed (no
     cycle ran, or their clock index lay past the cycle's last clock
     period) land after it — possibly severing circuits the cycle
     just committed, with the usual victim re-admission. *)
  (match t.mid_buffer with
  | [] -> ()
  | buf ->
    t.mid_buffer <- [];
    List.iter
      (fun (_clk, el) -> apply_fault t now (Fault.down_of el))
      (List.stable_sort (fun (a, _) (b, _) -> compare (a : int) b) buf));
  t.events_seen <- t.events_seen + !events;
  (match t.event_hook with
  | Some hook -> hook ~events:t.events_seen ~time:now
  | None -> ());
  if now > t.served_upto then t.served_upto <- now

let advance t ~upto =
  while (not (Event_heap.is_empty t.heap)) && Event_heap.min_time t.heap <= upto do
    step_slot t
  done;
  if upto > t.served_upto then t.served_upto <- upto

let drain t =
  while not (Event_heap.is_empty t.heap) do
    step_slot t
  done

let served_upto t = t.served_upto

let has_free_resource t = t.n_free > 0

(* --- Borrowing headroom ---------------------------------------------------- *)

(* A processor a borrowed arrival can be re-issued at: nothing queued,
   nothing in flight. *)
let idle t p = (not (transmitting t p)) && Ring.is_empty t.queues.(p)

let headroom_from_scratch t =
  let idle_procs = List.filter (idle t) (List.init t.np Fun.id) in
  match (idle_procs, free_list t) with
  | [], _ | _, [] -> None
  | target :: _, free ->
    let fg = Transform1.build t.net ~requests:idle_procs ~free in
    let outcome = Transform1.solve fg in
    if outcome.Transform1.allocated = 0 then None
    else
      let fabric_limited =
        List.exists
          (function `Link _ -> true | `Proc _ | `Res _ -> false)
          (Transform1.bottleneck fg)
      in
      Some (outcome.Transform1.allocated, fabric_limited, target)

let headroom t =
  match t.inc with
  | None -> headroom_from_scratch t
  | Some i ->
    let rec lowest_idle p =
      if p >= t.np then None else if idle t p then Some p else lowest_idle (p + 1)
    in
    (match lowest_idle 0 with
    | Some target when has_free_resource t ->
      let value = Incremental.headroom i ~idle:(idle t) in
      if value = 0 then None
      else Some (value, Incremental.last_fabric_limited i, target)
    | Some _ | None -> None)

let queued t = Array.fold_left (fun acc q -> acc + Ring.length q) 0 t.queues

let report t =
  let left_pending = queued t in
  let h = float_of_int (max 1 t.horizon) in
  { mode = t.cfg.Config.mode;
    horizon = t.horizon;
    arrivals = t.arrivals;
    allocated = t.allocated;
    completed = t.completed;
    cancelled = t.cancelled;
    expired = t.expired;
    left_pending;
    mean_wait = (if Stats.count t.waits = 0 then nan else Stats.mean t.waits);
    max_wait = t.max_wait;
    throughput = float_of_int t.completed /. h;
    utilization = float_of_int t.busy_slots /. (float_of_int t.nr *. h);
    cycles = t.cycles;
    skipped_cycles = t.skipped_cycles;
    solver_work = t.solver_work;
    faults = t.faults;
    repairs = t.repairs;
    victims = t.victims;
    mean_readmission =
      (if Stats.count t.readmissions = 0 then 0. else Stats.mean t.readmissions);
    shed = t.shed;
    given_up = t.given_up;
    retries = t.retries;
    quarantines = t.quarantines }

(* Task conservation: every arrival is in exactly one bucket. [queued]
   counts queue residents, [parked] victims waiting out a backoff,
   [in_flight] live transmissions/services. The chaos harness asserts
   this every slot. *)
type accounting = {
  a_arrivals : int;
  a_completed : int;
  a_cancelled : int;
  a_expired : int;
  a_shed : int;
  a_given_up : int;
  a_queued : int;
  a_parked : int;
  a_in_flight : int;
}

let accounting t =
  let parked = ref 0 and in_flight = ref 0 in
  Hashtbl.iter
    (fun _ task ->
      match task.phase with
      | Queued -> ()
      | Parked -> incr parked
      | Transmitting | Serving -> incr in_flight)
    t.tasks;
  { a_arrivals = t.arrivals;
    a_completed = t.completed;
    a_cancelled = t.cancelled;
    a_expired = t.expired;
    a_shed = t.shed;
    a_given_up = t.given_up;
    a_queued = queued t;
    a_parked = !parked;
    a_in_flight = !in_flight }

(* Every record sits where its phase says, and every place holds the
   record that says so: a queued task once in its home queue, a
   transmitting task in its processor's [tx_task] slot, each busy
   resource under exactly one in-flight task. A processor requests iff
   its queue is non-empty and it transmits nothing. *)
let check_placement t =
  let exception Misplaced of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Misplaced m)) fmt in
  let in_queue = Hashtbl.create 64 and holders = Array.make t.nr 0 in
  let transmitting_tasks = ref 0 in
  try
    Array.iteri
      (fun p q ->
        for k = 0 to Ring.length q - 1 do
          let id = Ring.get q k in
          if Hashtbl.mem in_queue id then bad "task %d is queued twice" id;
          Hashtbl.replace in_queue id ();
          match Hashtbl.find t.tasks id with
          | { phase = Queued; home; _ } when home = p -> ()
          | _ -> bad "task %d in queue %d is not queued there" id p
          | exception Not_found -> bad "queued task %d has no record" id
        done)
      t.queues;
    Hashtbl.iter
      (fun id task ->
        match task.phase with
        | Queued ->
          if not (Hashtbl.mem in_queue id) then
            bad "queued task %d is in no queue" id
        | Parked -> ()
        | Transmitting | Serving ->
          if task.phase = Transmitting then begin
            incr transmitting_tasks;
            if t.tx_task.(task.home) <> id then
              bad "transmitting task %d is not processor %d's circuit" id
                task.home
          end;
          holders.(task.res) <- holders.(task.res) + 1)
      t.tasks;
    (* Each transmitting task holds its processor's slot, so equal counts
       leave no slot holding anything else. *)
    let slots =
      Array.fold_left (fun n id -> if id = none then n else n + 1) 0 t.tx_task
    in
    if slots <> !transmitting_tasks then
      bad "%d processor(s) transmit, %d task(s) are transmitting" slots
        !transmitting_tasks;
    Array.iteri
      (fun r n ->
        if n > 1 || (n = 1) = t.res_idle.(r) then
          bad "resource %d is %s with %d in-flight holder(s)" r
            (if t.res_idle.(r) then "idle" else "busy")
            n)
      holders;
    Array.iteri
      (fun p on ->
        if on <> ((not (Ring.is_empty t.queues.(p))) && not (transmitting t p))
        then
          bad "processor %d requesting is %b, its queue and circuit say %b" p on
            (not on))
      t.requesting;
    Ok ()
  with Misplaced m -> Error ("Engine task table: " ^ m)

(* The cycle gate's counts must agree with the arrays they count. *)
let check_counts t =
  let pending = List.length (pending_list t) and free = List.length (free_list t) in
  if pending = t.n_pending && free = t.n_free then Ok ()
  else
    Error
      (Printf.sprintf
         "Engine counts drifted: %d pending and %d free kept, %d and %d held"
         t.n_pending t.n_free pending free)

let check_accounting t =
  let a = accounting t in
  let accounted =
    a.a_completed + a.a_cancelled + a.a_expired + a.a_shed + a.a_given_up
    + a.a_queued + a.a_parked + a.a_in_flight
  in
  if accounted = a.a_arrivals then
    Result.bind (check_placement t) (fun () -> check_counts t)
  else
    Error
      (Printf.sprintf
         "Engine accounting violated: arrivals %d <> %d = completed %d + \
          cancelled %d + expired %d + shed %d + given_up %d + queued %d + \
          parked %d + in_flight %d"
         a.a_arrivals accounted a.a_completed a.a_cancelled a.a_expired a.a_shed
         a.a_given_up a.a_queued a.a_parked a.a_in_flight)

(* ---------------------------------------------------------------- *)
(* Checkpoint / restore.

   A snapshot writes each fact of the state between slots once:
   counters, the tasks (each with its phase and, once placed outside a
   queue, its processor; in flight, its resource and commit slot;
   transmitting, its circuit's links), the queues, the flap detector,
   the event heap (with its (time, seq) keys, so within-slot processing
   order survives) and the warm solver's bookkeeping flags. Restore
   derives the rest: which processors request and which resources are
   busy, each task's event seqs from the heap, and the warm graph, in
   which every committed circuit's arcs are frozen again
   (Incremental.restore_circuit) and everything else follows from
   requests, resource freedom and link health. *)

let checkpoint_schema = "rsin-engine-checkpoint/v2"

let json_ints l = Json.Arr (List.map Json.int l)

(* Each queue, head first, read by index and consed from the back, as
   are the queues themselves: only the document's own cells are
   allocated. *)
let rec ring_ints q i acc =
  if i < 0 then acc else ring_ints q (i - 1) (Json.int (Ring.get q i) :: acc)

let rec queues_json qs k acc =
  if k < 0 then acc
  else
    let q = qs.(k) in
    queues_json qs (k - 1) (Json.Arr (ring_ints q (Ring.length q - 1) []) :: acc)

(* Every checkpointed counter, in the order the snapshot writes them:
   [snapshot] and [restore] both walk this one table. *)
let counters : (string * (t -> int) * (t -> int -> unit)) list =
  [ ("arrivals", (fun t -> t.arrivals), fun t n -> t.arrivals <- n);
    ("allocated", (fun t -> t.allocated), fun t n -> t.allocated <- n);
    ("completed", (fun t -> t.completed), fun t n -> t.completed <- n);
    ("cancelled", (fun t -> t.cancelled), fun t n -> t.cancelled <- n);
    ("expired", (fun t -> t.expired), fun t n -> t.expired <- n);
    ("cycles", (fun t -> t.cycles), fun t n -> t.cycles <- n);
    ( "skipped_cycles",
      (fun t -> t.skipped_cycles),
      fun t n -> t.skipped_cycles <- n );
    ("solver_work", (fun t -> t.solver_work), fun t n -> t.solver_work <- n);
    ("faults", (fun t -> t.faults), fun t n -> t.faults <- n);
    ("repairs", (fun t -> t.repairs), fun t n -> t.repairs <- n);
    ("victims", (fun t -> t.victims), fun t n -> t.victims <- n);
    ("shed", (fun t -> t.shed), fun t n -> t.shed <- n);
    ("given_up", (fun t -> t.given_up), fun t n -> t.given_up <- n);
    ("retries", (fun t -> t.retries), fun t n -> t.retries <- n);
    ("quarantines", (fun t -> t.quarantines), fun t n -> t.quarantines <- n);
    ("busy_slots", (fun t -> t.busy_slots), fun t n -> t.busy_slots <- n);
    ("horizon", (fun t -> t.horizon), fun t n -> t.horizon <- n);
    ("max_wait", (fun t -> t.max_wait), fun t n -> t.max_wait <- n);
    ("events_seen", (fun t -> t.events_seen), fun t n -> t.events_seen <- n);
    ("next_seq", (fun t -> t.next_seq), fun t n -> t.next_seq <- n) ]

let ev_to_json = function
  | Ev_arrive { id; proc; service; deadline; priority } ->
    Json.Obj
      (("ev", Json.Str "arrive") :: ("id", Json.int id)
      :: ("proc", Json.int proc) :: ("service", Json.int service)
      :: ("priority", Json.int priority)
      :: (match deadline with None -> [] | Some d -> [ ("deadline", Json.int d) ]))
  | Ev_cancel id -> Json.Obj [ ("ev", Json.Str "cancel"); ("id", Json.int id) ]
  | Ev_release id ->
    Json.Obj [ ("ev", Json.Str "release"); ("id", Json.int id) ]
  | Ev_complete id ->
    Json.Obj [ ("ev", Json.Str "complete"); ("id", Json.int id) ]
  | Ev_fault (fev, clock) ->
    Json.Obj
      ([ ("ev", Json.Str "fault");
         ("dir", Json.Str (if Fault.is_down fev then "down" else "up")) ]
      @ Fault.element_fields (Fault.element fev)
      @ match clock with None -> [] | Some c -> [ ("clock", Json.int c) ])
  | Ev_deadline id ->
    Json.Obj [ ("ev", Json.Str "deadline"); ("id", Json.int id) ]
  | Ev_wake -> Json.Obj [ ("ev", Json.Str "wake") ]
  | Ev_retry id -> Json.Obj [ ("ev", Json.Str "retry"); ("id", Json.int id) ]
  | Ev_unquarantine e ->
    Json.Obj (("ev", Json.Str "unquarantine") :: Fault.element_fields e)

(* A restored heap event carries only what live input could: an arrival
   passes [feed]'s checks, and an element names one of the network's. *)
let ev_of_json t j =
  let element () =
    let e = Fault.decode_element j in
    if not (Fault.in_range t.net e) then
      D.fail "%s is not an element of %s" (Fault.element_name e)
        (Network.name t.net);
    e
  in
  let id () = D.field "id" D.int j in
  match D.field "ev" D.str j with
  | "arrive" ->
    let proc = D.field "proc" D.int j and service = D.field "service" D.int j in
    let priority = D.field "priority" D.int j in
    (match arrival_error ~np:t.np ~proc ~service ~priority with
    | Some m -> D.fail "%s" m
    | None -> ());
    Ev_arrive
      { id = id (); proc; service; priority; deadline = D.opt "deadline" D.int j }
  | "cancel" -> Ev_cancel (id ())
  | "release" -> Ev_release (id ())
  | "complete" -> Ev_complete (id ())
  | "fault" ->
    let mk =
      match D.field "dir" D.str j with
      | "down" -> Fault.down_of
      | "up" -> Fault.up_of
      | dir -> D.fail "bad fault direction %S" dir
    in
    Ev_fault (mk (element ()), D.opt "clock" D.int j)
  | "deadline" -> Ev_deadline (id ())
  | "wake" -> Ev_wake
  | "retry" -> Ev_retry (id ())
  | "unquarantine" -> Ev_unquarantine (element ())
  | k -> D.fail "unknown event kind %S" k

let phase_name = function
  | Queued -> "queued"
  | Parked -> "parked"
  | Transmitting -> "transmitting"
  | Serving -> "serving"

let phase_of_name = function
  | "queued" -> Queued
  | "parked" -> Parked
  | "transmitting" -> Transmitting
  | "serving" -> Serving
  | k -> D.fail "unknown task phase %S" k

let int_field k v = (k, Json.int v)

let in_flight_fields task tail =
  int_field "proc" task.home :: int_field "res" task.res
  :: int_field "committed_at" task.committed_at :: tail

(* A task's facts: where it is, and what it carries there. A queued
   task's processor is the queue that holds it. The fields are consed
   onto their tail, last first, so no list is copied. *)
let task_to_json t id task =
  let int = int_field in
  let tail = if task.victim_at = none then [] else [ int "victim_at" task.victim_at ] in
  let tail = if task.retries = 0 then tail else int "retries" task.retries :: tail in
  let tail =
    match task.phase with
    | Queued -> tail
    | Parked -> int "proc" task.home :: tail
    | Serving -> in_flight_fields task tail
    | Transmitting ->
      in_flight_fields task
        (("links", json_ints (Network.circuit_links t.net task.net_id)) :: tail)
  in
  let tail =
    match task.deadline with None -> tail | Some d -> int "deadline" d :: tail
  in
  let phase =
    match task.phase with
    | Queued -> Json.Str "queued"
    | Parked -> Json.Str "parked"
    | Transmitting -> Json.Str "transmitting"
    | Serving -> Json.Str "serving"
  in
  Json.Obj
    (int "id" id :: ("phase", phase) :: int "arrival" task.arrival
    :: int "service" task.service :: int "priority" task.priority :: tail)

(* A fresh accumulator holds +/-infinity extremes, which the Json
   printer would turn into null — so extremes are only present when
   observations exist. *)
let accum_to_json a =
  let n, mean, m2, lo, hi = Stats.accum_state a in
  Json.Obj
    (("n", Json.int n)
    ::
    (if n = 0 then []
     else
       [ ("mean", Json.Num mean); ("m2", Json.Num m2); ("lo", Json.Num lo);
         ("hi", Json.Num hi) ]))

let accum_restore a j =
  let num k = D.field k D.num j in
  match D.field "n" D.int j with
  | 0 -> Stats.accum_restore a (0, 0., 0., infinity, neg_infinity)
  | n -> Stats.accum_restore a (n, num "mean", num "m2", num "lo", num "hi")

let snapshot t =
  if t.mid_buffer <> [] then
    invalid_arg
      "Engine.snapshot: mid-slot token faults buffered (snapshot only between \
       slots)";
  (* The indices below [n] that [keep] holds, ascending. *)
  let indices n keep =
    let l = ref [] in
    for i = n - 1 downto 0 do
      if keep t.net i then l := Json.int i :: !l
    done;
    Json.Arr !l
  in
  let down n up = indices n (fun net i -> not (up net i)) in
  let nl = Network.n_links t.net and nb = Network.n_boxes t.net in
  (* The table holds exactly the queued, parked and in-flight tasks,
     written by ascending id. *)
  let ids = Array.make (Hashtbl.length t.tasks) 0 in
  let n = ref 0 in
  Hashtbl.iter
    (fun id _ ->
      ids.(!n) <- id;
      incr n)
    t.tasks;
  Array.sort Int.compare ids;
  let tasks = ref [] in
  for k = Array.length ids - 1 downto 0 do
    tasks := task_to_json t ids.(k) (Hashtbl.find t.tasks ids.(k)) :: !tasks
  done;
  let heap =
    Event_heap.fold_sorted t.heap
      (fun ~time ~seq code acc ->
        Json.Obj
          [ ("t", Json.int time); ("seq", Json.int seq);
            ("ev", ev_to_json (decode t code)) ]
        :: acc)
      []
  in
  Json.Obj
    [ ("schema", Json.Str checkpoint_schema);
      ("config", Config.to_json t.cfg);
      ( "net",
        Json.Obj
          [ ("name", Json.Str (Network.name t.net));
            ("n_procs", Json.int t.np); ("n_res", Json.int t.nr);
            ("n_links", Json.int nl); ("n_boxes", Json.int nb);
            ("link_down", down nl Network.link_up);
            ("box_down", down nb Network.box_up);
            ("res_down", down t.nr Network.res_up);
            ("link_quarantined", indices nl Network.link_quarantined);
            ("box_quarantined", indices nb Network.box_quarantined);
            ("res_quarantined", indices t.nr Network.res_quarantined) ] );
      ( "counters",
        Json.Obj (List.map (fun (k, get, _) -> (k, Json.int (get t))) counters) );
      ( "served_upto",
        if t.served_upto = min_int then Json.Null else Json.int t.served_upto );
      ("waits", accum_to_json t.waits);
      ("readmissions", accum_to_json t.readmissions);
      ("tasks", Json.Arr !tasks);
      ("queues", Json.Arr (queues_json t.queues (Array.length t.queues - 1) []));
      ( "flap",
        match t.flap with None -> Json.Null | Some fl -> Flap.to_json fl );
      ("heap", Json.Arr heap);
      ( "inc",
        match t.inc with
        | None -> Json.Null
        | Some i ->
          Json.Obj
            [ ("dirty", Json.Bool (Incremental.dirty i));
              ("pending_ops", Json.int (Incremental.pending_ops i));
              ("total_work", Json.int (Incremental.total_work i)) ] ) ]

(* Files one task of the document and, in flight, takes its resource
   and (transmitting) re-establishes its circuit on the network and the
   warm graph. A resource two tasks hold, or a processor transmitting
   two circuits, is refused here. *)
let restore_task t tj =
  let id = D.field "id" D.int tj in
  if Hashtbl.mem t.tasks id then D.fail "task %d is listed twice" id;
  let phase = D.field "phase" (fun v -> phase_of_name (D.str v)) tj in
  let placed k dec = match phase with Queued -> -1 | _ -> D.field k dec tj in
  let in_flight k dec =
    match phase with Transmitting | Serving -> D.field k dec tj | _ -> -1
  in
  let service = D.field "service" D.int tj in
  let priority = D.field "priority" D.int tj in
  let retries = Option.value ~default:0 (D.opt "retries" D.int tj) in
  if service < 1 || priority < 0 || retries < 0 then
    D.fail "task %d has service %d, priority %d, %d retries" id service
      priority retries;
  let task =
    { arrival = D.field "arrival" D.int tj;
      service;
      priority;
      deadline = D.opt "deadline" D.int tj;
      phase;
      home = placed "proc" (D.index t.np);
      res = in_flight "res" (D.index t.nr);
      committed_at = in_flight "committed_at" D.int;
      net_id = -1;
      retries;
      victim_at = Option.value ~default:none (D.opt "victim_at" D.int tj);
      seq = none;
      deadline_seq = none }
  in
  Hashtbl.replace t.tasks id task;
  let p = task.home and r = task.res in
  match phase with
  | Queued | Parked -> ()
  | Transmitting | Serving ->
    if not t.res_idle.(r) then
      D.fail "resource %d is held by two in-flight tasks" r;
    t.res_idle.(r) <- false;
    if phase = Serving then sync_res t r
    else begin
      if transmitting t p then D.fail "processor %d transmits two circuits" p;
      let links =
        D.field "links" (D.list (D.index (Network.n_links t.net))) tj
      in
      (* establish checks the chain, not which processor and resource
         it joins. *)
      (match (links, List.rev links) with
      | first :: _, last :: _
        when first = Network.proc_link t.net p
             && last = Network.res_link t.net r ->
        ()
      | _ ->
        D.fail "task %d's circuit does not run from processor %d to resource %d"
          id p r);
      task.net_id <- Network.establish t.net links;
      Option.iter
        (fun i -> Incremental.restore_circuit i ~proc:p ~res:r ~links)
        t.inc;
      t.tx_task.(p) <- id;
      count_res t r
    end

(* Gives each parked or in-flight task the seqs of the events it waits
   for, read off the restored heap: the newest event of the right kind
   that names the task is its own, since a stale one was pushed before
   it; a deadline event must also be timed at the task's deadline. A
   task with no pending event for its phase would wait forever, and is
   refused. *)
let derive_seqs t =
  let completes = Hashtbl.create 16 in
  Event_heap.fold_sorted t.heap
    (fun ~time ~seq code () ->
      if seq >= t.next_seq then
        D.fail "heap event seq %d at or past next_seq %d" seq t.next_seq;
      match kind code with
      | K_release | K_complete | K_retry | K_deadline -> (
        let id = payload code in
        match (kind code, Hashtbl.find t.tasks id) with
        | (K_retry, ({ phase = Parked; _ } as task))
        | (K_release, ({ phase = Transmitting; _ } as task))
        | (K_complete, ({ phase = Serving; _ } as task)) ->
          if seq > task.seq then task.seq <- seq
        | K_complete, { phase = Transmitting; _ } ->
          Hashtbl.replace completes (id, seq) ()
        | K_deadline, task when task.deadline = Some time ->
          if seq > task.deadline_seq then task.deadline_seq <- seq
        | _ -> ()
        | exception Not_found -> ())
      | K_arrive | K_cancel | K_fault | K_wake | K_unquarantine -> ())
    ();
  Hashtbl.iter
    (fun id task ->
      let missing ev =
        D.fail "%s task %d has no pending %s" (phase_name task.phase) id ev
      in
      match task.phase with
      | Queued -> ()
      | Parked -> if task.seq = none then missing "retry"
      | Serving -> if task.seq = none then missing "complete"
      | Transmitting ->
        if task.seq = none then missing "release"
        else if not (Hashtbl.mem completes (id, task.seq + 1)) then
          missing "complete")
    t.tasks

(* Raises [D.Error], or [Invalid_argument] where the network or the warm
   graph refuses what the document asks of it. *)
let restore_exn ?obs ?cycle_hook ?event_hook net j =
  let schema = D.field "schema" D.str j in
  if schema <> checkpoint_schema then
    D.fail "unsupported schema %S (want %S)" schema checkpoint_schema;
  let config = D.field "config" (fun v -> D.ok (Config.of_json v)) j in
  if not (Network.all_up net && Network.circuits net = []) then
    D.fail "restore needs a pristine network";
  let np = Network.n_procs net and nr = Network.n_res net in
  let nl = Network.n_links net and nb = Network.n_boxes net in
  (* Health and quarantine flags, applied once the engine exists. *)
  let flags =
    D.field "net"
      (fun nj ->
        let name = D.field "name" D.str nj and dim k = D.field k D.int nj in
        if name <> Network.name net || dim "n_procs" <> np || dim "n_res" <> nr
           || dim "n_links" <> nl || dim "n_boxes" <> nb
        then
          D.fail "network mismatch (snapshot taken on %s %dx%d)" name
            (dim "n_procs") (dim "n_res");
        let ids k n = D.field k (D.list (D.index n)) nj in
        [ (ids "link_down" nl, fun net l -> Network.set_link_up net l false);
          (ids "box_down" nb, fun net b -> Network.set_box_up net b false);
          (ids "res_down" nr, fun net r -> Network.set_res_up net r false);
          ( ids "link_quarantined" nl,
            fun net l -> Network.set_link_quarantined net l true );
          ( ids "box_quarantined" nb,
            fun net b -> Network.set_box_quarantined net b true );
          ( ids "res_quarantined" nr,
            fun net r -> Network.set_res_quarantined net r true ) ])
      j
  in
  let t = create ?obs ~config ?cycle_hook ?event_hook net in
  (* Re-derive every warm link capacity and resource arc from the
     flags. *)
  List.iter (fun (ids, set) -> List.iter (set t.net) ids) flags;
  (match t.inc with
  | Some i ->
    for l = 0 to nl - 1 do
      Incremental.set_link_usable i l (Network.usable t.net l)
    done
  | None -> ());
  for r = 0 to nr - 1 do sync_res t r done;
  ignore (D.field "tasks" (D.list (restore_task t)) j);
  (* A queued task sits in exactly one queue, which is its home; a
     queued task in no queue is left to check_accounting. *)
  let queues = D.field "queues" (D.list (D.list D.int)) j in
  if List.length queues <> np then D.fail "queue count mismatch";
  List.iteri
    (fun p q ->
      List.iter
        (fun id ->
          match Hashtbl.find t.tasks id with
          | { phase = Queued; home = -1; _ } as task ->
            task.home <- p;
            Ring.push_back t.queues.(p) id
          | { phase = Queued; _ } -> D.fail "task %d is queued twice" id
          | task ->
            D.fail "%s task %d is in queue %d" (phase_name task.phase) id p
          | exception Not_found -> D.fail "queued task %d has no record" id)
        q)
    queues;
  (* A processor requests iff it has queued work and no circuit; the
     queues are in place, so set_requesting reads the right head's
     priority. *)
  for p = 0 to np - 1 do
    if not (Ring.is_empty t.queues.(p) || transmitting t p) then
      set_requesting t p true
  done;
  Option.iter
    (fun g ->
      Option.iter
        (fun fl -> t.flap <- Some fl)
        (D.opt "flap" (fun v -> D.ok (Flap.of_json g v)) j))
    config.Config.guard;
  D.field "counters"
    (fun c -> List.iter (fun (k, _, set) -> set t (D.field k D.int c)) counters)
    j;
  t.served_upto <- Option.value ~default:min_int (D.opt "served_upto" D.int j);
  D.field "waits" (accum_restore t.waits) j;
  D.field "readmissions" (accum_restore t.readmissions) j;
  ignore
    (D.field "heap"
       (D.list (fun ej ->
            let time = D.field "t" D.int ej and seq = D.field "seq" D.int ej in
            let code = code_of t (D.field "ev" (ev_of_json t) ej) in
            Event_heap.add t.heap ~time ~seq code))
       j);
  derive_seqs t;
  Option.iter
    (fun i ->
      let flags ij =
        Incremental.restore_flags i ~dirty:(D.field "dirty" D.bool ij)
          ~pending_ops:(D.field "pending_ops" D.int ij)
          ~total_work:(D.field "total_work" D.int ij)
      in
      if D.opt "inc" flags j = None then
        D.fail "warm snapshot without solver flags")
    t.inc;
  D.ok (check_accounting t);
  t

let restore ?obs ?cycle_hook ?event_hook net j =
  match
    D.run ~what:"checkpoint" (fun () ->
        restore_exn ?obs ?cycle_hook ?event_hook net j)
  with
  | r -> r
  | exception Invalid_argument m -> Error ("checkpoint: " ^ m)

let config t = t.cfg

let publish_counters t =
  Obs.count t.obs "engine.arrivals" t.arrivals;
  Obs.count t.obs "engine.allocated" t.allocated;
  Obs.count t.obs "engine.completed" t.completed;
  Obs.count t.obs "engine.cancelled" t.cancelled;
  Obs.count t.obs "engine.expired" t.expired;
  Obs.count t.obs "engine.cycles" t.cycles;
  Obs.count t.obs "engine.cycles_skipped" t.skipped_cycles;
  Obs.count t.obs "engine.solver_work" t.solver_work;
  Obs.count t.obs "engine.faults" t.faults;
  Obs.count t.obs "engine.repairs" t.repairs;
  Obs.count t.obs "engine.victims" t.victims;
  if t.cfg.Config.guard <> None then begin
    Obs.count t.obs "engine.guard.shed_total" t.shed;
    Obs.count t.obs "engine.guard.given_up_total" t.given_up;
    Obs.count t.obs "engine.guard.retries_total" t.retries;
    Obs.count t.obs "engine.guard.quarantines_total" t.quarantines
  end

let run ?obs ?config ?cycle_hook ?event_hook net trace =
  let t = create ?obs ?config ?cycle_hook ?event_hook net in
  List.iter (feed t) (Workload.sort_trace trace);
  drain t;
  publish_counters t;
  report t
