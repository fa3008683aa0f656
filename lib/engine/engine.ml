module Heap = Rsin_util.Heap
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
    heartbeat : int;
    faults : fault_plan option;
    guard : Policy.t option;
  }

  let make ?(mode = Warm) ?(discipline = Uniform) ?(solver = "dinic")
      ?(transmission_time = 1) ?(batch_threshold = 1) ?(max_defer = 16)
      ?(heartbeat = 0) ?(faults = None) ?(guard = None) () =
    if transmission_time < 1 then
      Error "Engine.Config: transmission_time must be >= 1"
    else if batch_threshold < 1 then
      Error "Engine.Config: batch_threshold must be >= 1"
    else if max_defer < 1 then Error "Engine.Config: max_defer must be >= 1"
    else if heartbeat < 0 then Error "Engine.Config: heartbeat must be >= 0"
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
              max_defer; heartbeat; faults; guard })

  let v ?mode ?discipline ?solver ?transmission_time ?batch_threshold
      ?max_defer ?heartbeat ?faults ?guard () =
    match
      make ?mode ?discipline ?solver ?transmission_time ?batch_threshold
        ?max_defer ?heartbeat ?faults ?guard ()
    with
    | Ok t -> t
    | Error msg -> invalid_arg msg

  let default = v ()

  let granularity_name = function `Slot -> "slot" | `Clock -> "clock"

  let pp ppf t =
    Format.fprintf ppf
      "@[<h>{mode=%s;@ discipline=%s;@ solver=%s;@ transmission=%d;@ \
       threshold=%d;@ defer=%d;@ heartbeat=%d;@ faults=%s}@]"
      (mode_name t.mode)
      (discipline_name t.discipline)
      t.solver t.transmission_time t.batch_threshold t.max_defer t.heartbeat
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
        ("heartbeat", Json.int t.heartbeat);
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
             ?max_defer:(int "max_defer") ?heartbeat:(int "heartbeat")
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
   deferred-batch wakeups as it runs. *)
type ev =
  | Ev_arrive of {
      id : int;
      proc : int;
      service : int;
      deadline : int option;
      priority : int;
    }
  | Ev_cancel of int
  | Ev_release of int   (* live-circuit table index: transmission done *)
  | Ev_complete of int  (* live-circuit table index: service done *)
  | Ev_fault of Fault.event * int option  (* optional intra-cycle clock *)
  | Ev_deadline of int  (* task id *)
  | Ev_wake
  | Ev_retry of int  (* task id: backoff elapsed, re-admit (guard) *)
  | Ev_unquarantine of Fault.element  (* cooling-off over (guard) *)

type task = {
  arrival : int;
  service : int;
  priority : int;
  deadline : int option;  (* kept for deadline-aware shedding *)
  mutable queued : bool;  (* false once transmitting, cancelled or expired *)
}

(* A live entry covers both phases of an allocation: transmission (the
   circuit holds its links; [released = false]) and service (links
   free, resource busy). It leaves the table at completion — or at a
   fault teardown during transmission, which silently invalidates the
   already-queued Ev_release/Ev_complete for its index. *)
type live = {
  net_id : int;
  lproc : int;
  lres : int;
  task_id : int;
  committed_at : int;
  lservice : int;
  inc : Incremental.circuit option;  (* Warm mode only *)
  mutable released : bool;
}

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
  queues : int list array;             (* task ids, FIFO *)
  transmitting : int option array;
  tasks : (int, task) Hashtbl.t;
  lives : (int, live) Hashtbl.t;
  mutable next_live : int;
  heap : (int * int, ev) Heap.t;
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
  victim_at : (int, int) Hashtbl.t;
  readmissions : Stats.accum;
  (* Guard state — all empty/zero when cfg.guard = None, in which case
     the engine behaves exactly as it did before the guard layer.
     [flap] is mutable only so checkpoint restore can swap in the
     deserialized detector. *)
  mutable flap : Flap.t option;
  retry_pending : (int, int) Hashtbl.t;  (* task id -> home processor *)
  retry_count : (int, int) Hashtbl.t;    (* task id -> teardowns so far *)
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

let res_free t r = t.res_idle.(r) && Network.res_available t.net r

let push t time ev =
  Heap.add t.heap (time, t.next_seq) ev;
  t.next_seq <- t.next_seq + 1

(* The pending request of a processor stands for its queue head; under
   the priority discipline the head's priority rides on the source
   arc's cost, so it must be refreshed whenever the head changes while
   the request stays pending (a cancel or expiry of the old head). *)
let head_priority t p =
  match t.queues.(p) with
  | id :: _ -> (Hashtbl.find t.tasks id).priority
  | [] -> 0

let set_requesting t p on =
  let changed = t.requesting.(p) <> on in
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
        | Priority -> Incremental.Mincost
      in
      Some (Incremental.create ~discipline:d net)
    | Rebuild | Token -> None
  in
  let solver_mod = Solver.get config.Config.solver in
  let t =
    { cfg = config; obs; cycle_hook; event_hook; net; np; nr; inc; solver_mod;
      requesting = Array.make np false;
      res_idle = Array.make nr true;
      queues = Array.make np [];
      transmitting = Array.make np None;
      tasks = Hashtbl.create 256;
      lives = Hashtbl.create 64;
      next_live = 0;
      heap =
        Heap.create ~cmp:(fun (t1, s1) (t2, s2) ->
            if t1 <> t2 then compare (t1 : int) t2 else compare (s1 : int) s2);
      next_seq = 0;
      arrivals = 0; allocated = 0; completed = 0; cancelled = 0; expired = 0;
      cycles = 0; skipped_cycles = 0; solver_work = 0;
      faults = 0; repairs = 0; victims = 0;
      mid_buffer = [];
      victim_at = Hashtbl.create 16;
      readmissions = Stats.accum ();
      flap = Option.map Flap.create config.Config.guard;
      retry_pending = Hashtbl.create 16;
      retry_count = Hashtbl.create 16;
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
let arrival_error t ~proc ~service ~priority =
  if proc < 0 || proc >= t.np then Some "bad processor"
  else if service < 1 then Some "bad service time"
  else if priority < 0 then Some "bad priority"
  else None

let feed t ev =
  let time = Workload.event_time ev in
  if time <= t.served_upto then
    invalid_arg "Engine.feed: event at or before an already-served slot";
  match ev with
  | Workload.Arrive { t = time; id; proc; service; deadline; priority } ->
    Option.iter
      (fun m -> invalid_arg ("Engine.feed: " ^ m ^ " in trace"))
      (arrival_error t ~proc ~service ~priority);
    push t time (Ev_arrive { id; proc; service; deadline; priority })
  | Workload.Cancel { t = time; id } -> push t time (Ev_cancel id)
  | Workload.Fault { t = time; clock; element } ->
    push t time (Ev_fault (Fault.down_of element, clock))
  | Workload.Repair { t = time; clock = _; element } ->
    (* Repairs always apply at the cycle boundary (Workload doc). *)
    push t time (Ev_fault (Fault.up_of element, None))

let drop_task t id =
  (* Remove a still-queued task (cancel or deadline expiry) and retire
     its record. *)
  match Hashtbl.find_opt t.tasks id with
  | Some task when task.queued ->
    Hashtbl.remove t.tasks id;
    Array.iteri
      (fun p q ->
        if List.mem id q then begin
          t.queues.(p) <- List.filter (fun x -> x <> id) q;
          if t.queues.(p) = [] then set_requesting t p false
          else if t.requesting.(p) then
            (* Same request, possibly a new head: refresh its priority. *)
            set_requesting t p true
        end)
      t.queues;
    true
  | Some _ | None -> false

(* Retire a victim parked in backoff (cancel or deadline expiry): its
   pending Ev_retry becomes a stale no-op. *)
let unpark t id =
  Hashtbl.mem t.retry_pending id
  && begin
    Hashtbl.remove t.retry_pending id;
    Hashtbl.remove t.retry_count id;
    Hashtbl.remove t.victim_at id;
    Hashtbl.remove t.tasks id;
    true
  end

(* Tear down a circuit still in transmission because a fault severed
   one of its links: release the circuit (net + warm graph), return
   the interrupted task to the head of its queue, and undo the busy
   slots it will no longer consume. The already-queued Ev_release /
   Ev_complete for this live index become no-ops. *)
let teardown t now li (l : live) =
  Hashtbl.remove t.lives li;
  Network.release t.net l.net_id;
  (match l.inc with
  | Some c -> Incremental.release (Option.get t.inc) c
  | None -> ());
  t.victims <- t.victims + 1;
  t.busy_slots <-
    t.busy_slots
    - (l.committed_at + t.cfg.Config.transmission_time + l.lservice - now);
  t.res_idle.(l.lres) <- true;
  (* The queued Ev_complete for this index is now a stale no-op, so
     re-enable the resource's endpoint arc here (a no-op when the
     fault that killed the circuit is the resource itself: health was
     flipped before the teardown, so res_free is already false). *)
  sync_res t l.lres;
  t.transmitting.(l.lproc) <- None;
  match t.cfg.Config.guard with
  | None ->
    (* Victim re-admission: back to the queue head, ahead of every task
       that arrived while it was transmitting. *)
    let task = Hashtbl.find t.tasks l.task_id in
    task.queued <- true;
    t.queues.(l.lproc) <- l.task_id :: t.queues.(l.lproc);
    Hashtbl.replace t.victim_at l.task_id now;
    set_requesting t l.lproc true
  | Some g ->
    (* Backoff re-admission: park the victim and schedule an Ev_retry
       after a capped-exponential, deterministically jittered delay —
       or give the task up once its retry budget is spent. The home
       processor may still request on behalf of its remaining queue. *)
    let attempts =
      Option.value ~default:0 (Hashtbl.find_opt t.retry_count l.task_id)
    in
    if attempts >= g.Policy.retry_budget then begin
      t.given_up <- t.given_up + 1;
      Hashtbl.remove t.tasks l.task_id;
      Hashtbl.remove t.retry_count l.task_id;
      Hashtbl.remove t.victim_at l.task_id;
      Obs.count t.obs "engine.guard.given_up" 1
    end
    else begin
      Hashtbl.replace t.retry_count l.task_id (attempts + 1);
      Hashtbl.replace t.retry_pending l.task_id l.lproc;
      Hashtbl.replace t.victim_at l.task_id now;
      let d = Retry.delay g ~task_id:l.task_id ~attempt:attempts in
      push t (now + d) (Ev_retry l.task_id);
      t.retries <- t.retries + 1;
      Obs.count t.obs "engine.guard.retries" 1
    end;
    if t.queues.(l.lproc) <> [] then set_requesting t l.lproc true

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
    Hashtbl.iter
      (fun li l ->
        if List.mem l.net_id dead && not l.released then teardown t now li l)
      (Hashtbl.copy t.lives);
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

(* Returns true when the event changed engine state (used for the
   measured horizon: trailing no-op deadline checks and wakeups do not
   extend it). *)
let process t now = function
  | Ev_arrive { id; proc; service; deadline; priority } ->
    t.arrivals <- t.arrivals + 1;
    (* A task terminal on arrival gets no record: [tasks] holds only
       queued, parked and in-flight tasks. *)
    let shed_newcomer () =
      t.shed <- t.shed + 1;
      Obs.count t.obs "engine.guard.shed" 1
    in
    (match deadline with
    | _ when Hashtbl.mem t.tasks id ->
      (* The id still names a live task: refuse the newcomer rather
         than overwrite the live record. *)
      shed_newcomer ()
    | Some d when d <= now ->
      (* Dead on arrival: the deadline is already past, so the task
         expires immediately — it must not sit in the queue forever
         (and certainly must not be served). *)
      t.expired <- t.expired + 1
    | _ -> (
      let admit () =
        Hashtbl.replace t.tasks id
          { arrival = now; service; priority; deadline; queued = true };
        t.queues.(proc) <- t.queues.(proc) @ [ id ];
        if t.transmitting.(proc) = None then set_requesting t proc true;
        (match deadline with Some d -> push t d (Ev_deadline id) | None -> ());
        if t.cfg.Config.batch_threshold > 1 then
          push t (now + t.cfg.Config.max_defer) Ev_wake
      in
      match t.cfg.Config.guard with
      | Some g
        when g.Policy.queue_bound > 0
             && List.length t.queues.(proc) >= g.Policy.queue_bound -> (
        (* Admission control: the pending queue is full, something must
           be shed before the newcomer can sit down. *)
        match g.Policy.shed_policy with
        | Policy.Drop_tail -> shed_newcomer ()
        | Policy.Deadline_aware ->
          (* Shed the pending task (newcomer included) with the least
             remaining deadline slack — the one most likely to expire
             unserved anyway. No-deadline tasks count as infinite
             slack; ties shed the newest, so the newcomer loses ties
             and queue order stays stable. *)
          let slack = function Some d -> d - now | None -> max_int in
          let q = t.queues.(proc) in
          let best_id = ref (-1) in
          let best_slack = ref (slack deadline) in
          let best_rec = ref (List.length q) in
          List.iteri
            (fun i tid ->
              let s = slack (Hashtbl.find t.tasks tid).deadline in
              if s < !best_slack || (s = !best_slack && i > !best_rec) then begin
                best_id := tid;
                best_slack := s;
                best_rec := i
              end)
            q;
          if !best_id = -1 then shed_newcomer ()
          else begin
            Hashtbl.remove t.tasks !best_id;
            t.queues.(proc) <- List.filter (fun x -> x <> !best_id) q;
            t.shed <- t.shed + 1;
            Obs.count t.obs "engine.guard.shed" 1;
            admit ();
            (* Shedding the head changes the pending request's task:
               refresh its priority on the source arc. *)
            if t.requesting.(proc) then set_requesting t proc true
          end)
      | Some _ | None -> admit ()));
    true
  | Ev_cancel id ->
    let gone = drop_task t id || unpark t id in
    if gone then t.cancelled <- t.cancelled + 1;
    gone
  | Ev_deadline id ->
    let gone = drop_task t id || unpark t id in
    if gone then t.expired <- t.expired + 1;
    gone
  | Ev_release li ->
    (match Hashtbl.find_opt t.lives li with
    | Some l when not l.released ->
      l.released <- true;
      Network.release t.net l.net_id;
      (match l.inc with
      | Some c -> Incremental.release (Option.get t.inc) c
      | None -> ());
      t.transmitting.(l.lproc) <- None;
      if t.queues.(l.lproc) <> [] then set_requesting t l.lproc true;
      true
    | Some _ | None -> false (* torn down by a fault *))
  | Ev_complete li ->
    (match Hashtbl.find_opt t.lives li with
    | Some l ->
      Hashtbl.remove t.lives li;
      t.completed <- t.completed + 1;
      Hashtbl.remove t.tasks l.task_id;
      Hashtbl.remove t.retry_count l.task_id;
      t.res_idle.(l.lres) <- true;
      sync_res t l.lres;
      true
    | None -> false (* torn down by a fault *))
  | Ev_fault (fev, clock) ->
    (match (t.cfg.Config.mode, clock) with
    | Token, Some clk when Fault.is_down fev ->
      t.mid_buffer <- t.mid_buffer @ [ (clk, Fault.element fev) ]
    | _ -> apply_fault t now fev);
    true
  | Ev_retry id ->
    (match Hashtbl.find_opt t.retry_pending id with
    | Some proc ->
      (* Backoff elapsed: re-admit at the queue head, like the legacy
         path — but only now, so a flapping element stops seeing the
         same victim every cycle. *)
      Hashtbl.remove t.retry_pending id;
      let task = Hashtbl.find t.tasks id in
      task.queued <- true;
      t.queues.(proc) <- id :: t.queues.(proc);
      if t.transmitting.(proc) = None then set_requesting t proc true;
      true
    | None -> false (* cancelled or expired while parked *))
  | Ev_unquarantine e ->
    (match t.flap with Some fl -> Flap.release fl e | None -> ());
    set_elt_quarantined t.net e false;
    (* The element may still be masked by a genuinely down neighbour. *)
    resync_element t e;
    true
  | Ev_wake -> false

let commit t now p r links inc_circuit =
  let net_id = Network.establish t.net links in
  let li = t.next_live in
  t.next_live <- t.next_live + 1;
  match t.queues.(p) with
  | id :: rest ->
    t.queues.(p) <- rest;
    let task = Hashtbl.find t.tasks id in
    task.queued <- false;
    Hashtbl.replace t.lives li
      { net_id; lproc = p; lres = r; task_id = id; committed_at = now;
        lservice = task.service; inc = inc_circuit; released = false };
    let w = now - task.arrival in
    Stats.observe t.waits (float_of_int w);
    if w > t.max_wait then t.max_wait <- w;
    (match Hashtbl.find_opt t.victim_at id with
    | Some t_fault ->
      Hashtbl.remove t.victim_at id;
      Stats.observe t.readmissions (float_of_int (now - t_fault));
      Obs.observe t.obs "engine.readmission_wait" (float_of_int (now - t_fault))
    | None -> ());
    t.transmitting.(p) <- Some id;
    (* Set directly, not via set_requesting/sync_res: in Warm mode the
       endpoint arcs are frozen with unit flow, not switched off. *)
    t.requesting.(p) <- false;
    t.res_idle.(r) <- false;
    push t (now + t.cfg.Config.transmission_time) (Ev_release li);
    push t
      (now + t.cfg.Config.transmission_time + task.service)
      (Ev_complete li);
    t.busy_slots <- t.busy_slots + t.cfg.Config.transmission_time + task.service;
    t.allocated <- t.allocated + 1
  | [] -> assert false

let try_cycle t now =
  let pending =
    List.filter (fun p -> t.requesting.(p)) (List.init t.np Fun.id)
  in
  let free = List.filter (res_free t) (List.init t.nr Fun.id) in
  let n_pending = List.length pending and n_free = List.length free in
  if pending = [] || free = [] then ()
  else begin
    let oldest_age =
      List.fold_left
        (fun acc p ->
          match t.queues.(p) with
          | id :: _ -> max acc (now - (Hashtbl.find t.tasks id).arrival)
          | [] -> acc)
        0 pending
    in
    if
      (n_pending >= t.cfg.Config.batch_threshold
      && n_free >= min t.cfg.Config.batch_threshold n_pending)
      || oldest_age >= t.cfg.Config.max_defer
    then begin
      t.cycles <- t.cycles + 1;
      let obs = t.obs in
      let committed, work, skipped =
        match (t.cfg.Config.mode, t.inc) with
        | (Rebuild | Token), Some _ | Warm, None -> assert false
        | Token, None ->
          (* Run the cycle on the distributed token architecture, with
             this slot's buffered clocked faults injected mid-cycle.
             The protocol self-recovers (watchdogs, iteration aborts,
             bounded retries), so the committed allocation is maximum
             on whatever subnetwork survives the cycle. *)
          let buffer = t.mid_buffer in
          t.mid_buffer <- [];
          let mid_of = function
            | Fault.Link l -> Token_sim.Dead_link l
            | Fault.Box b -> Token_sim.Dead_box b
            | Fault.Res r -> Token_sim.Dead_res r
          in
          let schedule = List.map (fun (clk, el) -> (clk, mid_of el)) buffer in
          let rep =
            Token_sim.run ?obs ~faults:schedule t.net ~requests:pending ~free
          in
          (* Faults the cycle actually reached are applied to the
             network now — before the hook, so a differential
             reference re-schedules exactly the degraded subnetwork
             the surviving tokens ran on. Entries past the cycle's
             last clock stay buffered for the end-of-slot flush. *)
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
          List.iter
            (fun (_clk, el) -> apply_fault t now (Fault.down_of el))
            fired;
          t.mid_buffer <- leftover;
          let committed =
            List.map
              (fun (p, r) -> (p, r, List.assoc p rep.Token_sim.circuits, None))
              rep.Token_sim.mapping
          in
          (committed, rep.Token_sim.total_clocks, false)
        | Warm, Some i ->
          let r = Incremental.solve ?obs i in
          ( List.map
              (fun (c : Incremental.circuit) ->
                (c.proc, c.res, c.links, Some c))
              r.Incremental.circuits,
            r.Incremental.work, r.Incremental.skipped )
        | Rebuild, None -> (
          match t.cfg.Config.discipline with
          | Uniform ->
            let tr = Transform1.build t.net ~requests:pending ~free in
            let o = Transform1.solve_with ?obs t.solver_mod tr in
            let _nodes, arcs = Transform1.size tr in
            let work =
              Network.n_links t.net + arcs + o.Transform1.arcs_scanned
            in
            let committed =
              List.map2
                (fun (p, r) (_p, links) -> (p, r, links, None))
                o.Transform1.mapping o.Transform1.circuits
            in
            (committed, work, false)
          | Priority ->
            let tr =
              Transform2.build t.net
                ~requests:(List.map (fun p -> (p, head_priority t p)) pending)
                ~free:(List.map (fun r -> (r, 0)) free)
            in
            let o = Transform2.solve ?obs tr in
            let _nodes, arcs = Transform2.size tr in
            let work =
              Network.n_links t.net + arcs + o.Transform2.arcs_scanned
            in
            let committed =
              List.map2
                (fun (p, r) (_p, links) -> (p, r, links, None))
                o.Transform2.mapping o.Transform2.circuits
            in
            (committed, work, false))
      in
      t.solver_work <- t.solver_work + work;
      if skipped then t.skipped_cycles <- t.skipped_cycles + 1;
      let n_committed = List.length committed in
      (match t.cycle_hook with
      | Some hook ->
        hook t.net
          { time = now; requests = pending; free;
            request_priorities =
              List.map (fun p -> (p, head_priority t p)) pending;
            mapping = List.map (fun (p, r, _, _) -> (p, r)) committed;
            allocated = n_committed; work; skipped }
      | None -> ());
      if t.tracing then
        Obs.instant t.obs "engine.cycle" ~ts:now
          ~args:
            [ ("pending", Tr.Int n_pending); ("free", Tr.Int n_free);
              ("allocated", Tr.Int n_committed); ("work", Tr.Int work);
              ("skipped", Tr.Bool skipped) ];
      List.iter (fun (p, r, links, c) -> commit t now p r links c) committed
    end
  end

(* One simulated slot: the batch of every queued event at the earliest
   time, the cycle it may trigger, the Token-mode end-of-slot fault
   flush, and the event-hook pulse. *)
let step_slot t =
  let (now, _), _ = Option.get (Heap.peek_min t.heap) in
  let batch = ref [] in
  let continue = ref true in
  while !continue do
    match Heap.peek_min t.heap with
    | Some ((time, _), _) when time = now ->
      let _, ev = Option.get (Heap.pop_min t.heap) in
      batch := ev :: !batch
    | Some _ | None -> continue := false
  done;
  let batch = List.rev !batch in
  let substantive =
    List.fold_left (fun acc ev -> process t now ev || acc) false batch
  in
  if substantive && now > t.horizon then t.horizon <- now;
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
  t.events_seen <- t.events_seen + List.length batch;
  (match t.event_hook with
  | Some hook -> hook ~events:t.events_seen ~time:now
  | None -> ());
  if now > t.served_upto then t.served_upto <- now

let advance t ~upto =
  let continue = ref true in
  while !continue do
    match Heap.peek_min t.heap with
    | Some ((time, _), _) when time <= upto -> step_slot t
    | Some _ | None -> continue := false
  done;
  if upto > t.served_upto then t.served_upto <- upto

let drain t =
  while not (Heap.is_empty t.heap) do
    step_slot t
  done

let served_upto t = t.served_upto

let has_free_resource t =
  let rec scan r = r < t.nr && (res_free t r || scan (r + 1)) in
  scan 0

(* --- Borrowing headroom ---------------------------------------------------- *)

(* A processor a borrowed arrival can be re-issued at: nothing queued,
   nothing in flight. *)
let idle t p =
  match (t.transmitting.(p), t.queues.(p)) with
  | None, [] -> true
  | Some _, _ | None, _ :: _ -> false

let headroom_from_scratch t =
  let idle_procs = List.filter (idle t) (List.init t.np Fun.id) in
  match (idle_procs, List.filter (res_free t) (List.init t.nr Fun.id)) with
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
      let value, fabric_limited = Incremental.headroom i ~idle:(idle t) in
      if value = 0 then None else Some (value, fabric_limited, target)
    | Some _ | None -> None)

let report t =
  let left_pending =
    Array.fold_left (fun acc q -> acc + List.length q) 0 t.queues
  in
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
  { a_arrivals = t.arrivals;
    a_completed = t.completed;
    a_cancelled = t.cancelled;
    a_expired = t.expired;
    a_shed = t.shed;
    a_given_up = t.given_up;
    a_queued = Array.fold_left (fun acc q -> acc + List.length q) 0 t.queues;
    a_parked = Hashtbl.length t.retry_pending;
    a_in_flight = Hashtbl.length t.lives }

(* The task table holds a record for every pending task and for no
   other: a leaked record is a memory leak, a missing one a later
   Not_found. *)
let check_task_table t (a : accounting) =
  let live = a.a_queued + a.a_parked + a.a_in_flight in
  let held id = Hashtbl.mem t.tasks id in
  if
    Hashtbl.length t.tasks = live
    && Array.for_all (List.for_all held) t.queues
    && Hashtbl.fold (fun id _ ok -> ok && held id) t.retry_pending true
    && Hashtbl.fold (fun _ (l : live) ok -> ok && held l.task_id) t.lives true
  then Ok ()
  else
    Error
      (Printf.sprintf
         "Engine task table holds %d record(s), not exactly the %d queued + \
          %d parked + %d in_flight task(s)"
         (Hashtbl.length t.tasks) a.a_queued a.a_parked a.a_in_flight)

let check_accounting t =
  let a = accounting t in
  let accounted =
    a.a_completed + a.a_cancelled + a.a_expired + a.a_shed + a.a_given_up
    + a.a_queued + a.a_parked + a.a_in_flight
  in
  if accounted = a.a_arrivals then check_task_table t a
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

   A snapshot captures the complete logical state between slots:
   counters, tasks, queues, live circuits, guard tables, the event
   heap (with its (time, seq) keys, so within-slot processing order
   survives), and the warm solver's bookkeeping flags. The warm
   graph itself is not serialized — it is exactly reconstructible
   because every committed circuit's arcs are frozen
   (Incremental.restore_circuit) and everything else is derived from
   requesting/res_free/link health. *)

let checkpoint_schema = "rsin-engine-checkpoint/v1"

let json_ints l = Json.Arr (List.map Json.int l)

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
    ("next_live", (fun t -> t.next_live), fun t n -> t.next_live <- n);
    ("next_seq", (fun t -> t.next_seq), fun t n -> t.next_seq <- n) ]

let ev_to_json = function
  | Ev_arrive { id; proc; service; deadline; priority } ->
    Json.Obj
      ([ ("ev", Json.Str "arrive"); ("id", Json.int id);
         ("proc", Json.int proc); ("service", Json.int service);
         ("priority", Json.int priority) ]
      @ match deadline with None -> [] | Some d -> [ ("deadline", Json.int d) ])
  | Ev_cancel id -> Json.Obj [ ("ev", Json.Str "cancel"); ("id", Json.int id) ]
  | Ev_release li -> Json.Obj [ ("ev", Json.Str "release"); ("li", Json.int li) ]
  | Ev_complete li ->
    Json.Obj [ ("ev", Json.Str "complete"); ("li", Json.int li) ]
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
  let id () = D.field "id" D.int j and li () = D.field "li" D.int j in
  match D.field "ev" D.str j with
  | "arrive" ->
    let proc = D.field "proc" D.int j and service = D.field "service" D.int j in
    let priority = D.field "priority" D.int j in
    (match arrival_error t ~proc ~service ~priority with
    | Some m -> D.fail "%s" m
    | None -> ());
    Ev_arrive
      { id = id (); proc; service; priority; deadline = D.opt "deadline" D.int j }
  | "cancel" -> Ev_cancel (id ())
  | "release" -> Ev_release (li ())
  | "complete" -> Ev_complete (li ())
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

(* Drain-and-readd: the heap has no iterator, but keys are preserved
   so the engine continues unperturbed afterwards. *)
let heap_entries t =
  let acc = ref [] in
  while not (Heap.is_empty t.heap) do
    acc := Option.get (Heap.pop_min t.heap) :: !acc
  done;
  let entries = List.rev !acc in
  List.iter (fun (key, ev) -> Heap.add t.heap key ev) entries;
  entries

let snapshot t =
  if t.mid_buffer <> [] then
    invalid_arg
      "Engine.snapshot: mid-slot token faults buffered (snapshot only between \
       slots)";
  let down n up = List.filter (fun i -> not (up t.net i)) (List.init n Fun.id) in
  let flagged n f = List.filter (f t.net) (List.init n Fun.id) in
  let nl = Network.n_links t.net and nb = Network.n_boxes t.net in
  (* The table holds exactly the queued, parked and in-flight tasks. *)
  let tasks =
    Hashtbl.fold (fun id task acc -> (id, task) :: acc) t.tasks []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
    |> List.map (fun (id, task) ->
           Json.Obj
             ([ ("id", Json.int id); ("arrival", Json.int task.arrival);
                ("service", Json.int task.service);
                ("priority", Json.int task.priority);
                ("queued", Json.Bool task.queued) ]
             @
             match task.deadline with
             | None -> []
             | Some d -> [ ("deadline", Json.int d) ]))
  in
  let lives =
    Hashtbl.fold (fun li l acc -> (li, l) :: acc) t.lives []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
    |> List.map (fun (li, (l : live)) ->
           Json.Obj
             [ ("li", Json.int li); ("proc", Json.int l.lproc);
               ("res", Json.int l.lres); ("task", Json.int l.task_id);
               ("committed_at", Json.int l.committed_at);
               ("service", Json.int l.lservice);
               ("released", Json.Bool l.released);
               ( "links",
                 json_ints
                   (if l.released then []
                    else snd (List.find (fun (id, _) -> id = l.net_id)
                                (Network.circuits t.net))) ) ])
  in
  let int_pairs tbl ka kb =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort compare
    |> List.map (fun (k, v) -> Json.Obj [ (ka, Json.int k); (kb, Json.int v) ])
  in
  let heap =
    List.map
      (fun ((time, seq), ev) ->
        Json.Obj
          [ ("t", Json.int time); ("seq", Json.int seq); ("ev", ev_to_json ev) ])
      (heap_entries t)
  in
  Json.Obj
    [ ("schema", Json.Str checkpoint_schema);
      ("config", Config.to_json t.cfg);
      ( "net",
        Json.Obj
          [ ("name", Json.Str (Network.name t.net));
            ("n_procs", Json.int t.np); ("n_res", Json.int t.nr);
            ("n_links", Json.int nl); ("n_boxes", Json.int nb);
            ("link_down", json_ints (down nl Network.link_up));
            ("box_down", json_ints (down nb Network.box_up));
            ("res_down", json_ints (down t.nr Network.res_up));
            ("link_quarantined", json_ints (flagged nl Network.link_quarantined));
            ("box_quarantined", json_ints (flagged nb Network.box_quarantined));
            ( "res_quarantined",
              json_ints (flagged t.nr Network.res_quarantined) ) ] );
      ( "counters",
        Json.Obj (List.map (fun (k, get, _) -> (k, Json.int (get t))) counters) );
      ( "served_upto",
        if t.served_upto = min_int then Json.Null else Json.int t.served_upto );
      ("waits", accum_to_json t.waits);
      ("readmissions", accum_to_json t.readmissions);
      ("tasks", Json.Arr tasks);
      ("queues", Json.Arr (Array.to_list (Array.map json_ints t.queues)));
      ( "requesting",
        json_ints
          (List.filter (fun p -> t.requesting.(p)) (List.init t.np Fun.id)) );
      ("lives", Json.Arr lives);
      ("victim_at", Json.Arr (int_pairs t.victim_at "task" "at"));
      ("retry_pending", Json.Arr (int_pairs t.retry_pending "task" "proc"));
      ("retry_count", Json.Arr (int_pairs t.retry_count "task" "count"));
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
  (* Tasks and queues before requesting flags: set_requesting reads the
     queue head's priority. *)
  List.iter
    (fun (id, task) -> Hashtbl.replace t.tasks id task)
    (D.field "tasks"
       (D.list (fun tj ->
            ( D.field "id" D.int tj,
              { arrival = D.field "arrival" D.int tj;
                service = D.field "service" D.int tj;
                priority = D.field "priority" D.int tj;
                deadline = D.opt "deadline" D.int tj;
                queued = D.field "queued" D.bool tj } )))
       j);
  let queues = D.field "queues" (D.list (D.list D.int)) j in
  if List.length queues <> np then D.fail "queue count mismatch";
  List.iteri
    (fun p q ->
      List.iter
        (fun id ->
          if not (Hashtbl.mem t.tasks id) then
            D.fail "queued task %d has no record" id)
        q;
      t.queues.(p) <- q)
    queues;
  List.iter
    (fun p -> set_requesting t p true)
    (D.field "requesting" (D.list (D.index np)) j);
  (* Live circuits, in table order: establishing on the restored
     network re-derives net ids; the warm graph gets each circuit's
     arcs frozen exactly as commit left them. Released entries hold no
     links — only the resource. *)
  let restore_live lj =
    let li = D.field "li" D.int lj in
    let lproc = D.field "proc" (D.index np) lj in
    let lres = D.field "res" (D.index nr) lj in
    let task_id = D.field "task" D.int lj in
    if not (Hashtbl.mem t.tasks task_id) then
      D.fail "live circuit for unknown task %d" task_id;
    let released = D.field "released" D.bool lj in
    let links = D.field "links" (D.list (D.index nl)) lj in
    let net_id, inc_circuit =
      if released then (-1, None)
      else
        ( Network.establish t.net links,
          Option.map
            (fun i -> Incremental.restore_circuit i ~proc:lproc ~res:lres ~links)
            t.inc )
    in
    Hashtbl.replace t.lives li
      { net_id; lproc; lres; task_id;
        committed_at = D.field "committed_at" D.int lj;
        lservice = D.field "service" D.int lj; inc = inc_circuit; released };
    if not released then t.transmitting.(lproc) <- Some task_id;
    t.res_idle.(lres) <- false;
    if released then sync_res t lres
  in
  ignore (D.field "lives" (D.list restore_live) j);
  let pairs key ka kb b tbl =
    List.iter
      (fun (k, v) -> Hashtbl.replace tbl k v)
      (D.field key (D.list (fun pj -> (D.field ka D.int pj, D.field kb b pj))) j)
  in
  pairs "victim_at" "task" "at" D.int t.victim_at;
  pairs "retry_pending" "task" "proc" (D.index np) t.retry_pending;
  pairs "retry_count" "task" "count" D.int t.retry_count;
  Option.iter
    (fun g ->
      Option.iter
        (fun fl -> t.flap <- Some fl)
        (D.opt "flap" (fun v -> D.ok (Flap.of_json g v)) j))
    config.Config.guard;
  D.field "counters"
    (fun c -> List.iter (fun (k, _, set) -> set t (D.field k D.int c)) counters)
    j;
  (* Every live index was handed out below next_live: one at or past it
     would be overwritten by a later commit. *)
  Hashtbl.iter
    (fun li _ ->
      if li >= t.next_live then
        D.fail "live circuit %d at or past next_live %d" li t.next_live)
    t.lives;
  t.served_upto <- Option.value ~default:min_int (D.opt "served_upto" D.int j);
  D.field "waits" (accum_restore t.waits) j;
  D.field "readmissions" (accum_restore t.readmissions) j;
  ignore
    (D.field "heap"
       (D.list (fun ej ->
            Heap.add t.heap
              (D.field "t" D.int ej, D.field "seq" D.int ej)
              (D.field "ev" (ev_of_json t) ej)))
       j);
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
