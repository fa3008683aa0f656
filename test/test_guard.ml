(* Tests for the robustness guard layer (lib/guard) and its engine
   integration: policy validation and JSON round-trips, the
   deterministic backoff schedule, the flap detector, admission
   control, retry budgets, quarantine, the conservation accounting
   invariant, engine/serve checkpoint-restore differentials, and a
   qcheck storm over three sharded topologies where donor elements
   fault in the same slots borrows are decided. *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Workload = Rsin_sim.Workload
module Fault = Rsin_fault.Fault
module Engine = Rsin_engine.Engine
module Serve = Rsin_engine.Serve
module Shard = Rsin_engine.Shard
module Chaos = Rsin_engine.Chaos
module Policy = Rsin_guard.Policy
module Retry = Rsin_guard.Retry
module Flap = Rsin_guard.Flap
module Prng = Rsin_util.Prng
module Json = Rsin_util.Json

let check = Alcotest.check

let get_ok ~what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* --- Policy ---------------------------------------------------------------- *)

let test_policy_validation () =
  let bad ?queue_bound ?retry_base ?retry_cap ?retry_jitter ?retry_budget
      ?flap_k ?flap_window ?quarantine_slots what =
    match
      Policy.make ?queue_bound ?retry_base ?retry_cap ?retry_jitter
        ?retry_budget ?flap_k ?flap_window ?quarantine_slots ()
    with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  bad ~queue_bound:(-1) "queue_bound -1";
  bad ~retry_base:0 "retry_base 0";
  bad ~retry_base:8 ~retry_cap:4 "cap < base";
  bad ~retry_jitter:(-1) "retry_jitter -1";
  bad ~retry_budget:(-1) "retry_budget -1";
  bad ~flap_k:(-1) "flap_k -1";
  bad ~flap_window:0 "flap_window 0";
  bad ~quarantine_slots:0 "quarantine_slots 0";
  let p = Policy.v () in
  check Alcotest.int "default queue bound" 64 p.Policy.queue_bound;
  check Alcotest.bool "default sheds drop-tail" true
    (p.Policy.shed_policy = Policy.Drop_tail)

let test_policy_json_roundtrip () =
  let p =
    Policy.v ~queue_bound:7 ~shed_policy:Policy.Deadline_aware ~retry_base:2
      ~retry_cap:32 ~retry_jitter:5 ~retry_budget:4 ~seed:99 ~flap_k:2
      ~flap_window:30 ~quarantine_slots:80 ()
  in
  let p' = get_ok ~what:"of_json" (Policy.of_json (Policy.to_json p)) in
  check Alcotest.bool "round trip" true (p = p');
  (match Policy.of_json (Json.Str "nope") with
  | Ok _ -> Alcotest.fail "bad shape accepted"
  | Error _ -> ());
  (* A config with a guard embeds the policy and round-trips too. *)
  let cfg = Engine.Config.v ~guard:(Some p) () in
  let cfg' =
    get_ok ~what:"config of_json" (Engine.Config.of_json (Engine.Config.to_json cfg))
  in
  check Alcotest.bool "config round trip keeps guard" true
    (cfg'.Engine.Config.guard = Some p)

(* --- Retry ----------------------------------------------------------------- *)

let test_retry_delay () =
  let p = Policy.v ~retry_base:2 ~retry_cap:16 ~retry_jitter:3 ~seed:5 () in
  for task_id = 0 to 20 do
    for attempt = 0 to 8 do
      let d = Retry.delay p ~task_id ~attempt in
      let base = min 16 (2 * (1 lsl attempt)) in
      check Alcotest.bool
        (Printf.sprintf "task %d attempt %d in bounds" task_id attempt)
        true
        (d >= max 1 base && d <= base + 3);
      check Alcotest.int "deterministic" d (Retry.delay p ~task_id ~attempt)
    done
  done;
  (* Jitter de-synchronizes: not every task gets the same delay. *)
  let ds =
    List.init 32 (fun task_id -> Retry.delay p ~task_id ~attempt:0)
  in
  check Alcotest.bool "jitter spreads delays" true
    (List.exists (fun d -> d <> List.hd ds) ds)

(* --- Flap ------------------------------------------------------------------ *)

let test_flap_detector () =
  let p = Policy.v ~flap_k:3 ~flap_window:10 ~quarantine_slots:25 () in
  let f = Flap.create p in
  let link7 = Fault.Link 7 in
  check Alcotest.bool "1st fault" true (Flap.record_fault f ~now:0 link7 = None);
  check Alcotest.bool "2nd fault" true (Flap.record_fault f ~now:4 link7 = None);
  check Alcotest.bool "3rd fault triggers" true
    (Flap.record_fault f ~now:8 link7 = Some 33);
  check Alcotest.bool "quarantined" true (Flap.is_quarantined f link7);
  (* While quarantined, further faults don't re-trigger. *)
  check Alcotest.bool "no double trigger" true
    (Flap.record_fault f ~now:9 link7 = None);
  Flap.release f link7;
  check Alcotest.bool "released" false (Flap.is_quarantined f link7);
  (* Sparse faults outside the window never trigger. *)
  let box2 = Fault.Box 2 in
  check Alcotest.bool "sparse 1" true (Flap.record_fault f ~now:0 box2 = None);
  check Alcotest.bool "sparse 2" true (Flap.record_fault f ~now:20 box2 = None);
  check Alcotest.bool "sparse 3" true (Flap.record_fault f ~now:40 box2 = None);
  check Alcotest.bool "sparse not quarantined" false (Flap.is_quarantined f box2)

let test_flap_json_roundtrip () =
  let p = Policy.v ~flap_k:3 ~flap_window:10 ~quarantine_slots:25 () in
  let f = Flap.create p in
  ignore (Flap.record_fault f ~now:1 (Fault.Link 3));
  ignore (Flap.record_fault f ~now:2 (Fault.Link 3));
  ignore (Flap.record_fault f ~now:3 (Fault.Res 1));
  ignore (Flap.record_fault f ~now:3 (Fault.Link 3)) |> ignore;
  let f' = get_ok ~what:"Flap.of_json" (Flap.of_json p (Flap.to_json f)) in
  check Alcotest.bool "active sets agree" true (Flap.active f = Flap.active f');
  (* The restored detector continues the same in-progress window. *)
  check Alcotest.bool "window continues" true
    (Flap.record_fault f ~now:4 (Fault.Res 1)
    = Flap.record_fault f' ~now:4 (Fault.Res 1))

(* --- Engine integration ---------------------------------------------------- *)

let overload_trace net ~slots =
  Workload.synthesize ~mean_service:4.0 ~deadline_slack:8
    (Prng.create 11) net ~slots ~arrival_prob:0.9

let guarded_config ?(policy = Policy.v ~queue_bound:2 ~retry_budget:2 ()) () =
  Engine.Config.v ~guard:(Some policy) ()

let test_admission_sheds () =
  let net = Builders.omega 8 in
  let trace = overload_trace net ~slots:60 in
  let r = Engine.run ~config:(guarded_config ()) net trace in
  check Alcotest.bool "overload sheds" true (r.Engine.shed > 0);
  (* Terminal buckets plus pending cover every arrival. *)
  check Alcotest.int "arrivals conserved" r.Engine.arrivals
    (r.Engine.completed + r.Engine.cancelled + r.Engine.expired
   + r.Engine.shed + r.Engine.given_up + r.Engine.left_pending)

let test_deadline_aware_sheds_least_slack () =
  (* Proc 0's circuit is pinned for 10 slots (transmission_time), so the
     t=1 near-deadline resident can't be served. The t=2 newcomer (far
     deadline) overflows the bound-1 queue: Deadline_aware sheds the
     resident (least slack) and the newcomer later completes;
     Drop_tail sheds the newcomer and the resident expires at slot 5. *)
  let mk id t service deadline =
    Workload.Arrive { t; id; proc = 0; service; deadline = Some deadline;
                      priority = 0 }
  in
  let trace = [ mk 0 0 2 100; mk 1 1 1 5; mk 2 2 1 80 ] in
  let run shed_policy =
    let policy = Policy.v ~queue_bound:1 ~shed_policy () in
    let cfg = Engine.Config.v ~transmission_time:10 ~guard:(Some policy) () in
    Engine.run ~config:cfg (Builders.omega 4) trace
  in
  let da = run Policy.Deadline_aware and dt = run Policy.Drop_tail in
  check Alcotest.int "deadline-aware sheds one" 1 da.Engine.shed;
  check Alcotest.int "drop-tail sheds one" 1 dt.Engine.shed;
  (* Under drop-tail the near-deadline resident stays queued and
     expires; deadline-aware shed it instead, so nothing expires and
     the spared newcomer completes. *)
  check Alcotest.int "drop-tail lets it expire" 1 dt.Engine.expired;
  check Alcotest.int "deadline-aware saved the expiry" 0 da.Engine.expired;
  check Alcotest.int "deadline-aware completes both others" 2 da.Engine.completed;
  check Alcotest.int "drop-tail completes only the first" 1 dt.Engine.completed

(* Task id -1 is an id like any other. With p0's link down no circuit
   can leave p0, so the resident (deadline 10) and the newcomer (no
   deadline) both wait on the bound-1 queue: deadline-aware admission
   must shed the resident, the one with less slack, whatever its id;
   the newcomer is left pending, and nothing expires. *)
let test_deadline_aware_sheds_id_minus_one () =
  let run resident =
    let trace =
      [ Workload.Fault { t = 0; clock = None; element = Fault.Link 0 };
        Workload.Arrive { t = 0; id = resident; proc = 0; service = 2;
                          deadline = Some 10; priority = 0 };
        Workload.Arrive { t = 1; id = 5; proc = 0; service = 2; deadline = None;
                          priority = 0 } ]
    in
    let policy =
      Policy.v ~queue_bound:1 ~shed_policy:Policy.Deadline_aware ()
    in
    Engine.run ~config:(Engine.Config.v ~guard:(Some policy) ()) (Builders.omega 4)
      trace
  in
  List.iter
    (fun resident ->
      let r = run resident in
      let what = Printf.sprintf "resident id %d" resident in
      check Alcotest.int (what ^ ": one shed") 1 r.Engine.shed;
      check Alcotest.int (what ^ ": nothing expires") 0 r.Engine.expired;
      check Alcotest.int (what ^ ": the newcomer waits") 1 r.Engine.left_pending)
    [ 4; -1 ]

let fault_trace net ~slots ~seed =
  let trace =
    Workload.synthesize ~mean_service:4.0 (Prng.create seed) net ~slots
      ~arrival_prob:0.4
  in
  let frng = Prng.split (Prng.create seed) in
  let fevents =
    Workload.fault_events
      (Fault.inject frng net ~horizon:slots ~mtbf:15.0 ~mttr:5.0)
  in
  Workload.sort_trace (trace @ fevents)

let test_retry_budget_gives_up () =
  let net = Builders.omega 8 in
  let trace = fault_trace net ~slots:150 ~seed:3 in
  let run budget =
    let policy = Policy.v ~queue_bound:0 ~retry_budget:budget ~flap_k:0 () in
    let e = Engine.create ~config:(guarded_config ~policy ()) net in
    List.iter
      (fun ev ->
        Engine.feed e
          (match ev with
          | Workload.Arrive a -> Workload.Arrive { a with deadline = None }
          | ev -> ev))
      trace;
    Engine.drain e;
    (* A task given up leaves no record in the engine's task table. *)
    (match Engine.check_accounting e with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "budget %d: %s" budget msg);
    Engine.report e
  in
  let generous = run 64 and strict = run 0 in
  check Alcotest.bool "storm victimizes" true (generous.Engine.victims > 0);
  check Alcotest.bool "generous budget retries" true (generous.Engine.retries > 0);
  check Alcotest.int "generous budget never gives up" 0 generous.Engine.given_up;
  check Alcotest.bool "zero budget gives up on first victimization" true
    (strict.Engine.given_up > 0);
  check Alcotest.int "strict run schedules no retries" 0 strict.Engine.retries

let test_quarantine_counts () =
  let net = Builders.omega 8 in
  let trace = fault_trace net ~slots:150 ~seed:7 in
  let policy = Policy.v ~flap_k:1 ~flap_window:10 ~quarantine_slots:12 () in
  let r = Engine.run ~config:(guarded_config ~policy ()) net trace in
  check Alcotest.bool "flaps quarantine" true (r.Engine.quarantines > 0);
  (* flap_k = 0 disables the detector entirely. *)
  let off = Policy.v ~flap_k:0 () in
  let r0 = Engine.run ~config:(guarded_config ~policy:off ()) net trace in
  check Alcotest.int "flap_k 0 never quarantines" 0 r0.Engine.quarantines

let test_guard_off_is_legacy () =
  (* A fault-free workload served with and without a guard must follow
     the identical trajectory: admission never triggers below the
     bound, and retries/quarantine only exist under faults. *)
  let net () = Builders.omega 8 in
  let trace =
    Workload.synthesize ~mean_service:3.0 ~cancel_prob:0.1 (Prng.create 5)
      (net ()) ~slots:80 ~arrival_prob:0.3
  in
  let traj cfg =
    let log = Buffer.create 256 in
    let hook _net (i : Engine.cycle_info) =
      Buffer.add_string log
        (Printf.sprintf "%d:%d;" i.Engine.time i.Engine.allocated)
    in
    let e = Engine.create ~config:cfg ~cycle_hook:hook (net ()) in
    List.iter (Engine.feed e) trace;
    Engine.drain e;
    (Buffer.contents log, Engine.report e)
  in
  let l1, r1 = traj (Engine.Config.v ()) in
  let l2, r2 = traj (guarded_config ~policy:(Policy.v ()) ()) in
  check Alcotest.string "trajectories identical" l1 l2;
  check Alcotest.int "completed identical" r1.Engine.completed r2.Engine.completed;
  check Alcotest.int "no shed" 0 r2.Engine.shed;
  check Alcotest.int "no retries" 0 r2.Engine.retries

let test_accounting_every_slot () =
  let net = Builders.omega 8 in
  let trace = fault_trace net ~slots:120 ~seed:9 in
  let policy = Policy.v ~queue_bound:3 ~retry_budget:2 ~flap_k:2 ~flap_window:20 () in
  let cfg = guarded_config ~policy () in
  let cell = ref None in
  let hook ~events:_ ~time:_ =
    match !cell with
    | None -> ()
    | Some e -> (
      match Engine.check_accounting e with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "accounting: %s" msg)
  in
  let e = Engine.create ~config:cfg ~event_hook:hook net in
  cell := Some e;
  List.iter (Engine.feed e) trace;
  Engine.drain e;
  (match Engine.check_accounting e with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "final accounting: %s" msg);
  let a = Engine.accounting e in
  check Alcotest.int "drained: nothing parked" 0 a.Engine.a_parked;
  check Alcotest.int "drained: nothing in flight" 0 a.Engine.a_in_flight

(* --- Reused task ids --------------------------------------------------------

   engine.mli lets a task id be used again once its task has finished.
   Each scenario below serves task 7, finishes it while it still has
   guard state or a pending event, and serves a second task 7 that must
   start afresh. *)

let reuse_net = lazy (Builders.omega 4)

let reuse_arrive ?deadline t id =
  Workload.Arrive { t; id; proc = 0; service = 2; deadline; priority = 0 }

(* p0's only link, failed at [t] or repaired at [t]. *)
let p0_link_down t =
  let l = Network.proc_link (Lazy.force reuse_net) 0 in
  Workload.Fault { t; clock = None; element = Fault.Link l }

let p0_link_up t =
  let l = Network.proc_link (Lazy.force reuse_net) 0 in
  Workload.Repair { t; clock = None; element = Fault.Link l }

(* The first task 7 is torn down at 1 and re-queued at 2 (backoff of
   one slot), then finishes while queued at 3: cancelled, expired, or
   shed by a deadline-aware admission. The second task 7, admitted at
   6, is torn down at 7 with a budget of one retry: it must be retried
   rather than given up, and its readmission measured from 7, not from
   the first task's teardown. *)
let test_reuse_after_victim_finishes () =
  let net = Lazy.force reuse_net in
  let run ?(shed_policy = Policy.Drop_tail) ?(queue_bound = 0) first ending =
    let policy =
      Policy.v ~queue_bound ~shed_policy ~retry_budget:1 ~retry_jitter:0
        ~flap_k:0 ()
    in
    let config =
      Engine.Config.v ~transmission_time:5 ~guard:(Some policy) ()
    in
    Engine.run ~config net
      ([ first; p0_link_down 1 ] @ ending
      @ [ p0_link_up 4; reuse_arrive 6 7; p0_link_down 7; p0_link_up 8 ])
  in
  List.iter
    (fun (what, r) ->
      check Alcotest.int (what ^ ": nothing given up") 0 r.Engine.given_up;
      check Alcotest.int (what ^ ": second task completes") 1
        r.Engine.completed;
      check (Alcotest.float 0.) (what ^ ": readmission from slot 7") 1.
        r.Engine.mean_readmission)
    [ ( "cancelled",
        run (reuse_arrive 0 7) [ Workload.Cancel { t = 3; id = 7 } ] );
      ("expired", run (reuse_arrive ~deadline:3 0 7) []);
      (* Task 8, with no deadline, has more slack than task 7: the full
         queue sheds 7. Task 8 is cancelled before the repair lets it
         run. *)
      ( "shed",
        run ~shed_policy:Policy.Deadline_aware ~queue_bound:1
          (reuse_arrive ~deadline:100 0 7)
          [ reuse_arrive 3 8; Workload.Cancel { t = 4; id = 8 } ] ) ]

(* The first task 7 is cancelled while parked, so its retry (slot 21)
   outlives it. The second task 7 is torn down at 6 and must wait its
   own backoff of 20 slots, to 26. *)
let test_reuse_keeps_own_backoff () =
  let net = Lazy.force reuse_net in
  let policy = Policy.v ~retry_base:20 ~retry_jitter:0 ~flap_k:0 () in
  let config = Engine.Config.v ~transmission_time:5 ~guard:(Some policy) () in
  let r =
    Engine.run ~config net
      [ reuse_arrive 0 7; p0_link_down 1; Workload.Cancel { t = 2; id = 7 };
        p0_link_up 3; reuse_arrive 4 7; p0_link_down 6; p0_link_up 7 ]
  in
  check Alcotest.int "both tasks torn down" 2 r.Engine.victims;
  check Alcotest.int "second task completes" 1 r.Engine.completed;
  check (Alcotest.float 0.) "readmitted after its own backoff" 20.
    r.Engine.mean_readmission

(* --- Checkpoint / restore -------------------------------------------------- *)

let test_engine_checkpoint_differential () =
  (* Kill the engine mid-run at slot K, restore from the snapshot's
     actual serialized bytes, feed the rest: trajectory and final
     report must be byte-identical to the uninterrupted run. *)
  let kill_at = 60 in
  let net () = Builders.omega 8 in
  let trace = fault_trace (net ()) ~slots:120 ~seed:13 in
  let policy = Policy.v ~queue_bound:4 ~retry_budget:3 ~flap_k:2 ~flap_window:25 () in
  let cfg = guarded_config ~policy () in
  let early, late =
    List.partition (fun e -> Workload.event_time e <= kill_at) trace
  in
  let log = Buffer.create 256 in
  let hook _net (i : Engine.cycle_info) =
    Buffer.add_string log
      (Printf.sprintf "%d:%d:%s;" i.Engine.time i.Engine.allocated
         (String.concat ","
            (List.map
               (fun (p, r) -> Printf.sprintf "%d>%d" p r)
               i.Engine.mapping)))
  in
  (* Uninterrupted. *)
  let e = Engine.create ~config:cfg ~cycle_hook:hook (net ()) in
  List.iter (Engine.feed e) trace;
  Engine.drain e;
  let full_log = Buffer.contents log and full_report = Engine.report e in
  (* Killed + restored. *)
  Buffer.clear log;
  let e1 = Engine.create ~config:cfg ~cycle_hook:hook (net ()) in
  List.iter (Engine.feed e1) early;
  Engine.advance e1 ~upto:kill_at;
  let bytes = Json.to_string (Engine.snapshot e1) in
  let j = get_ok ~what:"parse checkpoint" (Json.parse bytes) in
  let e2 = get_ok ~what:"restore" (Engine.restore ~cycle_hook:hook (net ()) j) in
  List.iter (Engine.feed e2) late;
  Engine.drain e2;
  check Alcotest.string "trajectory identical" full_log (Buffer.contents log);
  check Alcotest.bool "report identical" true (full_report = Engine.report e2);
  (match Engine.check_accounting e2 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "restored accounting: %s" msg)

(* A fault's victims are torn down, and their retries take their heap
   seqs, in an order the engine state defines, so a restored engine
   numbers them as the uninterrupted one does. 256 circuits at slot 0
   grow the live-circuit table past its first size, and a table never
   shrinks, while the engine restored at slot 50 starts with a small
   one. While victims were torn down in the table's iteration order,
   each box below swapped two retries' seqs after the restore. *)
let test_restore_teardown_order () =
  let net () = Builders.omega 256 in
  let config =
    Engine.Config.v ~transmission_time:30 ~guard:(Some Policy.default) ()
  in
  let arrive t id proc =
    Workload.Arrive { t; id; proc; service = 5; deadline = None; priority = 0 }
  in
  List.iter
    (fun box ->
      let e = Engine.create ~config (net ()) in
      List.iter (Engine.feed e) (List.init 256 (fun p -> arrive 0 p p));
      Engine.advance e ~upto:50;
      let doc =
        get_ok ~what:"parse checkpoint"
          (Json.parse (Json.to_string (Engine.snapshot e)))
      in
      let r = get_ok ~what:"restore" (Engine.restore (net ()) doc) in
      let later =
        List.init 100 (fun k -> arrive 60 (1000 + k) (k * 5 mod 256))
        @ [ Workload.Fault { t = 62; clock = None; element = Fault.Box box } ]
      in
      List.iter
        (fun x ->
          List.iter (Engine.feed x) later;
          Engine.advance x ~upto:63)
        [ e; r ];
      check Alcotest.bool
        (Printf.sprintf "box %d has victims" box)
        true
        ((Engine.report e).Engine.victims > 1);
      check Alcotest.string
        (Printf.sprintf "box %d: restored snapshot at slot 63" box)
        (Json.to_string (Engine.snapshot e))
        (Json.to_string (Engine.snapshot r)))
    [ 132; 481; 773; 944 ]

let test_restore_rejects_garbage () =
  let net = Builders.omega 4 in
  (match Engine.restore net (Json.Str "nope") with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (match Engine.restore net (Json.Obj [ ("schema", Json.Str "wrong/v9") ]) with
  | Ok _ -> Alcotest.fail "wrong schema accepted"
  | Error _ -> ());
  (* A snapshot of one topology must not restore onto another. *)
  let e = Engine.create (Builders.omega 8) in
  let j = Engine.snapshot e in
  (match Engine.restore net j with
  | Ok _ -> Alcotest.fail "wrong topology accepted"
  | Error _ -> ());
  (* The task list must be exactly the queued, parked and in-flight
     tasks: a record for any other task is refused. *)
  let e = Engine.create net in
  Engine.feed e
    (Workload.Arrive
       { t = 0; id = 1; proc = 0; service = 5; deadline = None; priority = 0 });
  Engine.advance e ~upto:0;
  let extra =
    Json.Obj
      [ ("id", Json.Num 2.); ("arrival", Json.Num 0.); ("service", Json.Num 1.);
        ("priority", Json.Num 0.); ("phase", Json.Str "queued") ]
  in
  let j =
    match Engine.snapshot e with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "tasks", Json.Arr ts -> ("tasks", Json.Arr (ts @ [ extra ]))
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  ignore (get_ok ~what:"restore" (Engine.restore net (Engine.snapshot e)));
  (match Engine.restore net j with
  | Ok _ -> Alcotest.fail "record of a finished task accepted"
  | Error _ -> ());
  (* The counters must account for every arrival: a snapshot whose
     arrivals no longer equal the sum of the buckets is refused, and so
     is one too large to be an exact integer. *)
  let with_arrivals n =
    let counters = function
      | Json.Obj cs ->
        Json.Obj
          (List.map
             (function "arrivals", _ -> ("arrivals", Json.Num n) | kv -> kv)
             cs)
      | c -> c
    in
    match Engine.snapshot e with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function "counters", c -> ("counters", counters c) | kv -> kv)
           fields)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  List.iter
    (fun n ->
      match Engine.restore net (with_arrivals n) with
      | Ok _ -> Alcotest.failf "arrivals tampered to %g accepted" n
      | Error _ -> ())
    [ 5.; 1e300 ]

let test_serve_checkpoint_differential () =
  (* Same differential through the sharded server, checkpointing on a
     slot boundary via the event hook path the CLI uses. *)
  let kill_at = 40 in
  let net () = Builders.multiplane ~planes:2 (Builders.omega 8) in
  let trace = fault_trace (net ()) ~slots:80 ~seed:17 in
  let policy = Policy.v ~queue_bound:4 ~retry_budget:3 ~flap_k:2 ~flap_window:25 () in
  let cfg = Engine.Config.v ~guard:(Some policy) () in
  let early, late =
    List.partition (fun e -> Workload.event_time e <= kill_at) trace
  in
  let full =
    get_ok ~what:"full run" (Serve.run ~config:cfg ~domains:2 (net ()) trace)
  in
  let t1 =
    get_ok ~what:"create" (Serve.create ~config:cfg ~domains:2 (net ()))
  in
  List.iter (Serve.feed t1) early;
  let bytes = Json.to_string (Serve.snapshot t1) in
  Serve.abort t1;
  let j = get_ok ~what:"parse" (Json.parse bytes) in
  let t2 = get_ok ~what:"restore" (Serve.restore ~domains:2 (net ()) j) in
  List.iter (Serve.feed t2) late;
  Serve.drain t2;
  (match Serve.check_accounting t2 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "restored accounting: %s" msg);
  let r = Serve.report t2 in
  check Alcotest.int "completed identical" full.Serve.completed r.Serve.completed;
  check Alcotest.int "allocated identical" full.Serve.allocated r.Serve.allocated;
  check Alcotest.int "victims identical" full.Serve.victims r.Serve.victims;
  check Alcotest.int "retries identical" full.Serve.retries r.Serve.retries;
  check Alcotest.int "shed identical" full.Serve.shed r.Serve.shed;
  check Alcotest.int "quarantines identical" full.Serve.quarantines
    r.Serve.quarantines

(* --- Restore: one decoder, one rule ----------------------------------------- *)

type step = K of string | I of int

(* [doc] with the node at [path] replaced by [f node], or removed from
   its parent where [f] gives [None]. *)
let rec update path f doc =
  match (path, doc) with
  | [], v -> Option.value (f v) ~default:Json.Null
  | [ K k ], Json.Obj fs ->
    Json.Obj
      (List.filter_map
         (fun (k', v) ->
           if k' = k then Option.map (fun v -> (k', v)) (f v) else Some (k', v))
         fs)
  | [ I i ], Json.Arr xs ->
    Json.Arr
      (List.concat
         (List.mapi (fun j v -> if j = i then Option.to_list (f v) else [ v ]) xs))
  | K k :: rest, Json.Obj fs ->
    Json.Obj
      (List.map (fun (k', v) -> (k', if k' = k then update rest f v else v)) fs)
  | I i :: rest, Json.Arr xs ->
    Json.Arr (List.mapi (fun j v -> if j = i then update rest f v else v) xs)
  | _ -> Alcotest.fail "no node at that path"

let set path v = update path (fun _ -> Some v)

(* An engine checkpoint whose heap holds an arrival (entry 0, with a
   deadline) and a link fault (entry 1). *)
let heap_checkpoint net =
  let e = Engine.create ~config:(guarded_config ()) net in
  Engine.feed e
    (Workload.Arrive
       { t = 3; id = 1; proc = 0; service = 2; deadline = Some 9; priority = 0 });
  Engine.feed e (Workload.Fault { t = 4; clock = None; element = Fault.Link 0 });
  Engine.advance e ~upto:1;
  Engine.snapshot e

let refused ~what net doc =
  match Engine.restore net doc with
  | Ok _ -> Alcotest.failf "%s: restore accepted it" what
  | Error _ -> ()

(* A heap event [feed] would refuse raises from the engine's advance at
   the first slot that reaches it, so restore must refuse it instead. *)
let test_restore_rejects_heap_arrival () =
  let net = Builders.omega 8 in
  let j = heap_checkpoint net in
  ignore (get_ok ~what:"untampered" (Engine.restore net j));
  let ev k = [ K "heap"; I 0; K "ev"; K k ] in
  refused ~what:"arrival on processor 999" net (set (ev "proc") (Json.int 999) j);
  refused ~what:"arrival on processor -1" net (set (ev "proc") (Json.int (-1)) j);
  refused ~what:"arrival with service 0" net (set (ev "service") (Json.int 0) j);
  refused ~what:"arrival with priority -1" net
    (set (ev "priority") (Json.int (-1)) j)

let test_restore_rejects_heap_element () =
  let net = Builders.omega 8 in
  let j = heap_checkpoint net in
  let ev = [ K "heap"; I 1; K "ev" ] in
  let idx = ev @ [ K "idx" ] in
  refused ~what:"fault on link 9999" net (set idx (Json.int 9999) j);
  refused ~what:"fault on box -1" net
    (set (ev @ [ K "kind" ]) (Json.Str "box") (set idx (Json.int (-1)) j));
  refused ~what:"unquarantine of resource 99" net
    (set ev
       (Json.Obj
          [ ("ev", Json.Str "unquarantine"); ("kind", Json.Str "res");
            ("idx", Json.int 99) ])
       j)

(* Every decoder reads an absent field and a null one alike, and
   refuses a field given with the wrong shape. One row per document
   kind: a field of a real document, and the decoder with its result
   re-encoded so two decodes compare. *)
let test_decoders_share_one_rule () =
  let net = Builders.omega 8 in
  let serve_net = Builders.multiplane ~planes:2 (Builders.omega 4) in
  let serve_doc =
    let t = get_ok ~what:"create" (Serve.create ~domains:1 serve_net) in
    Serve.feed t
      (Workload.Arrive
         { t = 0; id = 0; proc = 0; service = 3; deadline = None; priority = 0 });
    let j = Serve.snapshot t in
    Serve.abort t;
    j
  in
  let policy = Policy.v ~queue_bound:7 ~flap_k:3 () in
  let flap = Flap.create policy in
  ignore (Flap.record_fault flap ~now:2 (Fault.Box 1));
  let module B = Rsin_obs.Bench_report in
  let bench = B.create ~quick:true ~env:[ ("os", "x") ] "b" in
  B.record_count (B.case bench "c") ~name:"m" 1.;
  let encoded to_json r = Result.map (fun x -> Json.to_string (to_json x)) r in
  let engine j = encoded Engine.snapshot (Engine.restore net j) in
  let serve j =
    match Serve.restore ~domains:1 serve_net j with
    | Ok t ->
      let s = Json.to_string (Serve.snapshot t) in
      Serve.abort t;
      Ok s
    | Error m -> Error m
  in
  let config j = encoded Engine.Config.to_json (Engine.Config.of_json j) in
  let policy_ j = encoded Policy.to_json (Policy.of_json j) in
  let flap_ j = encoded Flap.to_json (Flap.of_json policy j) in
  let bench_ j = encoded B.to_json (B.of_json j) in
  let rows =
    [ ("engine heap deadline", engine, heap_checkpoint net,
       [ K "heap"; I 0; K "ev"; K "deadline" ]);
      ("engine served_upto", engine, heap_checkpoint net, [ K "served_upto" ]);
      ("serve cur_slot", serve, serve_doc, [ K "cur_slot" ]);
      ("config max_defer", config, Engine.Config.to_json (guarded_config ()),
       [ K "max_defer" ]);
      ("policy queue_bound", policy_, Policy.to_json policy, [ K "queue_bound" ]);
      ("flap history", flap_, Flap.to_json flap, [ K "history" ]);
      ("bench quick", bench_, B.to_json bench, [ K "quick" ]) ]
  in
  List.iter
    (fun (what, decode, doc, path) ->
      ignore (get_ok ~what (decode doc));
      let absent = decode (update path (fun _ -> None) doc) in
      (match (absent, decode (set path Json.Null doc)) with
      | Ok absent, Ok null ->
        check Alcotest.string (what ^ ": null is absent") absent null
      | Error _, Error _ -> ()
      | Ok _, Error m ->
        Alcotest.failf "%s: absent decodes, null is refused: %s" what m
      | Error m, Ok _ ->
        Alcotest.failf "%s: null decodes, absent is refused: %s" what m);
      match decode (set path (Json.Str "x") doc) with
      | Ok _ -> Alcotest.failf "%s: a string decodes" what
      | Error _ -> ())
    rows

(* A real serve checkpoint with live circuits, parked victims,
   quarantines, flap windows and a busy heap. *)
let serve_checkpoint =
  lazy
    (let net = Builders.multiplane ~planes:2 (Builders.omega 8) in
     let trace =
       Workload.sort_trace
         (Workload.synthesize ~mean_service:4.0 ~deadline_slack:8
            (Prng.create 5) net ~slots:40 ~arrival_prob:0.5
         @ Workload.fault_events
             (Fault.inject (Prng.create 6) net ~horizon:40 ~mtbf:15.0 ~mttr:5.0))
     in
     let policy =
       Policy.v ~queue_bound:4 ~retry_budget:3 ~flap_k:2 ~flap_window:25 ()
     in
     let cfg = Engine.Config.v ~guard:(Some policy) () in
     let t = get_ok ~what:"create" (Serve.create ~config:cfg ~domains:1 net) in
     List.iter (Serve.feed t) trace;
     let j = Serve.snapshot t in
     Serve.abort t;
     (net, j))

(* --- Checkpoints whose facts conflict --------------------------------------

   A checkpoint writes each fact once and restore derives the rest, so
   a document can no longer make a processor request, and one whose
   facts conflict is an [Error]. *)

let member k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "no field %S" k

let int_of j =
  match Json.to_int j with Some n -> n | None -> Alcotest.fail "not an integer"

let items = function Json.Arr xs -> xs | _ -> Alcotest.fail "not an array"
let task_id tj = int_of (member "id" tj)

(* The tasks of an engine checkpoint in [phase], by id. *)
let in_phase phase doc =
  List.filter
    (fun tj -> member "phase" tj = Json.Str phase)
    (items (member "tasks" doc))

(* [doc] with task [id]'s record passed through [f]. *)
let map_task id f =
  update [ K "tasks" ] (fun ts ->
      Some
        (Json.Arr
           (List.map
              (fun tj -> if task_id tj = id then f tj else tj)
              (items ts))))

(* A task record with fields [fs] set. *)
let with_fields fs = function
  | Json.Obj kv ->
    Json.Obj (List.filter (fun (k, _) -> not (List.mem_assoc k fs)) kv @ fs)
  | _ -> Alcotest.fail "task is not an object"

(* [doc] without the heap events of kind [ev] that name task [id]. *)
let drop_events ev id =
  update [ K "heap" ] (fun h ->
      Some
        (Json.Arr
           (List.filter
              (fun entry ->
                let e = member "ev" entry in
                not
                  (member "ev" e = Json.Str ev && int_of (member "id" e) = id))
              (items h))))

(* The arrivals of 30 slots at 0.3 on [net], box 0 failing at 19; under
   [config] victims back off 30 slots and circuits transmit for 5, so at
   slot 20 tasks are queued, transmitting, serving and parked. *)
let conflict_config =
  let policy = Policy.v ~retry_base:30 ~retry_jitter:0 ~flap_k:0 () in
  Engine.Config.v ~transmission_time:5 ~guard:(Some policy) ()

let conflict_trace net =
  Workload.sort_trace
    (Workload.synthesize ~mean_service:4.0 (Prng.create 5) net ~slots:30
       ~arrival_prob:0.3
    @ [ Workload.Fault { t = 19; clock = None; element = Fault.Box 0 } ])

(* An omega:8 engine at slot 20, the rest of its trace in the heap. *)
let conflict_engine ?(config = conflict_config) () =
  let net = Builders.omega 8 in
  let e = Engine.create ~config net in
  List.iter (Engine.feed e) (conflict_trace net);
  Engine.advance e ~upto:20;
  (net, e)

(* Each conflict: what it is, and how to write it into an engine
   checkpoint together with the words its refusal must contain ([None]
   when the document has no task to write it with). *)
let conflicts =
  let first phase k doc =
    match in_phase phase doc with
    | tj :: _ -> Some (k (task_id tj) tj)
    | [] -> None
  in
  let without ev phase doc =
    first phase
      (fun id _ ->
        ( drop_events ev id doc,
          Printf.sprintf "%s task %d has no pending %s" phase id ev ))
      doc
  in
  [ ( "v1 schema",
      fun doc ->
        Some
          ( set [ K "schema" ] (Json.Str "rsin-engine-checkpoint/v1") doc,
            "\"rsin-engine-checkpoint/v1\" (want \"rsin-engine-checkpoint/v2\")"
          ) );
    ( "queued task in service on a busy resource",
      fun doc ->
        let queues =
          List.mapi (fun p q -> (p, items q)) (items (member "queues" doc))
        in
        match
          ( in_phase "transmitting" doc @ in_phase "serving" doc,
            List.find_opt (fun (_, q) -> q <> []) queues )
        with
        | holder :: _, Some (p, q :: _) ->
          let r = int_of (member "res" holder) and id = int_of q in
          let doc =
            update [ K "queues"; I p ]
              (fun q ->
                Some
                  (Json.Arr (List.filter (fun x -> int_of x <> id) (items q))))
              doc
          in
          Some
            ( map_task id
                (with_fields
                   [ ("phase", Json.Str "serving"); ("proc", Json.int p);
                     ("res", Json.int r); ("committed_at", Json.int 20) ])
                doc,
              Printf.sprintf "resource %d is held by two in-flight tasks" r )
        | _ -> None );
    ( "queued task with service 0",
      fun doc ->
        first "queued"
          (fun id _ ->
            ( map_task id (with_fields [ ("service", Json.int 0) ]) doc,
              Printf.sprintf "task %d has service 0" id ))
          doc );
    ("transmitting task without its release", without "release" "transmitting");
    ( "transmitting task without its complete",
      without "complete" "transmitting" );
    ("serving task without its complete", without "complete" "serving");
    ("parked task without its retry", without "retry" "parked");
    ( "circuit from another processor",
      fun doc ->
        let tx = in_phase "transmitting" doc in
        let busy = List.map (fun tj -> int_of (member "proc" tj)) tx in
        let queues = items (member "queues" doc) in
        match
          ( tx,
            List.find_opt
              (fun p -> not (List.mem p busy))
              (List.init (List.length queues) Fun.id) )
        with
        | a :: _, Some p ->
          Some
            ( map_task (task_id a) (with_fields [ ("proc", Json.int p) ]) doc,
              Printf.sprintf "circuit does not run from processor %d" p )
        | _ -> None );
    ( "processor transmitting two circuits",
      fun doc ->
        match in_phase "transmitting" doc with
        | a :: b :: _ ->
          let p = int_of (member "proc" a) in
          Some
            ( map_task (task_id b) (with_fields [ ("proc", Json.int p) ]) doc,
              Printf.sprintf "processor %d transmits two circuits" p )
        | _ -> None ) ]

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let refused_with ~what ~words = function
  | Ok _ -> Alcotest.failf "%s: restore accepted it" what
  | Error m ->
    if not (contains m words) then
      Alcotest.failf "%s: refusal %S does not say %S" what m words

let test_restore_refuses_conflicts () =
  let net, e = conflict_engine () in
  let doc = Engine.snapshot e in
  ignore (get_ok ~what:"untampered" (Engine.restore net doc));
  List.iter
    (fun (what, write) ->
      match write doc with
      | None ->
        Alcotest.failf "%s: the checkpoint has no task to write it with" what
      | Some (bad, words) -> refused_with ~what ~words (Engine.restore net bad))
    conflicts

(* The same refusals through the sharded server: each conflict is
   written into the first shard whose checkpoint can hold it. *)
let test_serve_restore_refuses_conflicts () =
  let net = Builders.multiplane ~planes:2 (Builders.omega 8) in
  let t =
    get_ok ~what:"create" (Serve.create ~config:conflict_config ~domains:1 net)
  in
  List.iter (Serve.feed t)
    (List.filter (fun ev -> Workload.event_time ev <= 21) (conflict_trace net));
  let j = Serve.snapshot t in
  Serve.abort t;
  let shards = items (member "shards" j) in
  List.iter
    (fun (what, write) ->
      match List.find_map Fun.id (List.mapi (fun i s ->
          Option.map (fun (bad, words) -> (i, bad, words)) (write s)) shards)
      with
      | None -> Alcotest.failf "%s: no shard has a task to write it with" what
      | Some (i, bad, words) ->
        let doc = set [ K "shards"; I i ] bad j in
        refused_with ~what ~words
          (match Serve.restore ~domains:1 net doc with
          | Ok t ->
            Serve.abort t;
            Ok ()
          | Error m -> Error m))
    conflicts

(* A document naming a processor with an empty queue and no circuit as
   requesting used to restore into an engine whose next cycle committed
   from that empty queue. Restore now derives the requests: the field
   is ignored, and the restored engine continues as the original. *)
let test_restore_derives_requesting () =
  let net, e = conflict_engine ~config:Engine.Config.default () in
  let doc = Engine.snapshot e in
  let queues = List.map items (items (member "queues" doc)) in
  let busy =
    List.map (fun tj -> int_of (member "proc" tj)) (in_phase "transmitting" doc)
  in
  let idle =
    match
      List.find_opt
        (fun p -> List.nth queues p = [] && not (List.mem p busy))
        (List.init (List.length queues) Fun.id)
    with
    | Some p -> p
    | None -> Alcotest.fail "no idle processor at slot 20"
  in
  let hostile =
    match doc with
    | Json.Obj fs ->
      Json.Obj (fs @ [ ("requesting", Json.Arr [ Json.int idle ]) ])
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  let r = get_ok ~what:"restore" (Engine.restore net hostile) in
  check Alcotest.string "restored state" (Json.to_string doc)
    (Json.to_string (Engine.snapshot r));
  Engine.drain e;
  Engine.drain r;
  check Alcotest.bool "same report" true (Engine.report e = Engine.report r);
  (match Engine.check_accounting r with
  | Ok () -> ()
  | Error m -> Alcotest.failf "accounting: %s" m)

(* Every node of [doc], as the path to it. *)
let rec node_paths prefix doc =
  let below =
    match doc with
    | Json.Obj fs ->
      List.concat_map (fun (k, v) -> node_paths (K k :: prefix) v) fs
    | Json.Arr xs ->
      List.concat (List.mapi (fun i v -> node_paths (I i :: prefix) v) xs)
    | _ -> []
  in
  List.rev prefix :: below

let swap_type = function
  | Json.Num _ -> Json.Str "x"
  | Json.Str _ -> Json.Bool true
  | Json.Bool _ -> Json.Num 1.
  | Json.Null -> Json.Arr []
  | Json.Arr _ -> Json.Obj []
  | Json.Obj _ -> Json.Arr []

let test_restore_never_raises =
  let paths =
    lazy (Array.of_list (node_paths [] (snd (Lazy.force serve_checkpoint))))
  in
  (* An integer where there is a number, a change of type elsewhere. *)
  let number n = function Json.Num _ -> Json.int n | v -> swap_type v in
  let mutations =
    [| ("drop", fun _ -> None);
       ("swap type", fun v -> Some (swap_type v));
       ("-1", fun v -> Some (number (-1) v));
       ("1e9", fun v -> Some (number 1_000_000_000 v)) |]
  in
  QCheck.Test.make ~count:1000
    ~name:"serve restore of a one-node mutation returns, never raises"
    QCheck.(pair (float_bound_exclusive 1.) (int_bound 3))
    (fun (at, m) ->
      let net, j = Lazy.force serve_checkpoint in
      let paths = Lazy.force paths in
      let path = paths.(int_of_float (at *. float_of_int (Array.length paths))) in
      let name, f = mutations.(m) in
      match Serve.restore ~domains:1 net (update path f j) with
      | Ok t ->
        Serve.abort t;
        true
      | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "%s at %s raised %s" name
          (String.concat "."
             (List.map (function K k -> k | I i -> string_of_int i) path))
          (Printexc.to_string e))

(* --- Borrowing under donor faults (qcheck, 3 topologies) ------------------- *)

let borrow_storm_topologies =
  [ (0, fun () -> Builders.multiplane ~planes:2 (Builders.omega 8));
    (1, fun () -> Builders.multiplane ~planes:3 (Builders.omega 4));
    (2, fun () -> Builders.multiplane ~planes:2 (Builders.clos ~m:3 ~n:4 ~r:4)) ]

let test_borrow_donor_fault_qcheck =
  QCheck.Test.make ~count:12
    ~name:"borrowing stays deterministic and conserved when donors fault"
    QCheck.(pair (int_range 0 2) (int_range 0 1000))
    (fun (which, seed) ->
      let _, mk = List.nth borrow_storm_topologies which in
      let net = mk () in
      (* Saturate plane 0 (every arrival lands there) so the router must
         borrow from the other plane(s), and storm every element with a
         short MTBF so donor elements keep faulting in the very slots
         borrows are decided. *)
      let slots = 60 in
      let base =
        Workload.synthesize ~mean_service:5.0 (Prng.create seed) net ~slots
          ~arrival_prob:0.9
      in
      let plane0 = Network.n_procs net / Shard.components net in
      let crowded =
        List.filter_map
          (function
            | Workload.Arrive { proc; _ } when proc >= plane0 -> None
            | e -> Some e)
          base
      in
      let frng = Prng.split (Prng.create seed) in
      let fevents =
        Workload.fault_events
          (Fault.inject frng net ~horizon:slots ~mtbf:8.0 ~mttr:3.0)
      in
      let trace = Workload.sort_trace (crowded @ fevents) in
      let policy = Policy.v ~queue_bound:6 ~retry_budget:2 ~flap_k:2 ~flap_window:15 () in
      let cfg = Engine.Config.v ~guard:(Some policy) () in
      let run domains =
        match Serve.run ~config:cfg ~domains net trace with
        | Ok r -> r
        | Error msg -> QCheck.Test.fail_reportf "serve: %s" msg
      in
      let r1 = run 1 and r2 = run 2 in
      (* Borrows occur in most storms (the deterministic test below
         pins one); here the property is that whatever happened stayed
         deterministic and conserved. *)
      (* Domain count must not perturb anything. *)
      if
        r1.Serve.allocated <> r2.Serve.allocated
        || r1.Serve.borrows <> r2.Serve.borrows
        || r1.Serve.completed <> r2.Serve.completed
        || r1.Serve.victims <> r2.Serve.victims
        || r1.Serve.shed <> r2.Serve.shed
        || r1.Serve.retries <> r2.Serve.retries
      then QCheck.Test.fail_reportf "domains=1 vs 2 diverge (seed %d)" seed;
      (* Conservation across shards, faults and borrows included. *)
      r1.Serve.arrivals
      = r1.Serve.completed + r1.Serve.cancelled + r1.Serve.expired
        + r1.Serve.shed + r1.Serve.given_up + r1.Serve.left_pending)

let test_borrow_donor_faults_same_slot () =
  (* Pin the exact race the qcheck storm samples: plane 0's resources
     are all pinned by slot-0 long transmissions, so the slot-2 arrival
     at proc 0 must borrow from plane 1 — and in that same slot a
     plane-1 link and a plane-1 resource port fault. The router decides
     the borrow on state complete through slot 1 (donor healthy), the
     donor's fault applies within slot 2: the borrowed circuit may be
     torn down the moment it exists. Whatever happens must be the same
     at every domain count and conserve every arrival. *)
  let base = Builders.omega 4 in
  let net () = Builders.multiplane ~planes:2 base in
  let arrive id t proc service =
    Workload.Arrive { t; id; proc; service; deadline = None; priority = 0 }
  in
  let fault element = Workload.Fault { t = 2; clock = None; element } in
  let trace =
    [ arrive 0 0 0 50; arrive 1 0 1 50; arrive 2 0 2 50; arrive 3 0 3 50;
      fault (Fault.Link (Network.n_links base + 1));
      fault (Fault.Res 5);
      arrive 10 2 0 3 ]
  in
  let policy = Policy.v ~queue_bound:8 ~retry_budget:3 ~flap_k:2 ~flap_window:20 () in
  let cfg = Engine.Config.v ~guard:(Some policy) () in
  let run domains =
    get_ok ~what:"serve" (Serve.run ~config:cfg ~domains (net ()) trace)
  in
  let r1 = run 1 and r2 = run 2 in
  check Alcotest.bool "exhausted home borrows" true (r1.Serve.borrows >= 1);
  check Alcotest.bool "donor fault applied" true (r1.Serve.faults >= 2);
  check Alcotest.int "borrows agree across domains" r1.Serve.borrows r2.Serve.borrows;
  check Alcotest.int "completed agree across domains" r1.Serve.completed
    r2.Serve.completed;
  check Alcotest.int "victims agree across domains" r1.Serve.victims
    r2.Serve.victims;
  check Alcotest.int "arrivals conserved" r1.Serve.arrivals
    (r1.Serve.completed + r1.Serve.cancelled + r1.Serve.expired + r1.Serve.shed
   + r1.Serve.given_up + r1.Serve.left_pending)

(* --- Chaos harness (quick) ------------------------------------------------- *)

let test_chaos_quick () =
  (* The full soak is the CI step; here a tiny seeded storm proves the
     harness end to end, including the kill/restore differential and
     the report document. *)
  let outcomes = get_ok ~what:"chaos" (Chaos.run ~quick:true ~slots:40 ()) in
  check Alcotest.int "three topologies" 3 (List.length outcomes);
  List.iter
    (fun (o : Chaos.outcome) ->
      check Alcotest.bool (o.Chaos.topology ^ ": checks ran") true
        (o.Chaos.checks > 0);
      check Alcotest.bool (o.Chaos.topology ^ ": restore identical") true
        o.Chaos.restore_identical;
      check Alcotest.bool (o.Chaos.topology ^ ": corrupted lines dropped") true
        (o.Chaos.stream_errors > 0))
    outcomes;
  let j = Chaos.report_json outcomes in
  let field k =
    match Json.member k j with
    | Some v -> v
    | None -> Alcotest.failf "report missing %s" k
  in
  check Alcotest.string "report schema" "rsin-chaos-report/v1"
    (Option.value ~default:"?" (Json.to_str (field "schema")));
  check Alcotest.int "report rows" 3
    (List.length (Option.value ~default:[] (Json.to_list (field "topologies"))))

let suite =
  [ Alcotest.test_case "policy validation" `Quick test_policy_validation;
    Alcotest.test_case "policy json round trip" `Quick test_policy_json_roundtrip;
    Alcotest.test_case "retry delay" `Quick test_retry_delay;
    Alcotest.test_case "flap detector" `Quick test_flap_detector;
    Alcotest.test_case "flap json round trip" `Quick test_flap_json_roundtrip;
    Alcotest.test_case "admission sheds under overload" `Quick test_admission_sheds;
    Alcotest.test_case "deadline-aware shedding" `Quick
      test_deadline_aware_sheds_least_slack;
    Alcotest.test_case "deadline-aware sheds a resident whose id is -1" `Quick
      test_deadline_aware_sheds_id_minus_one;
    Alcotest.test_case "retry budget gives up" `Quick test_retry_budget_gives_up;
    Alcotest.test_case "flap quarantine counts" `Quick test_quarantine_counts;
    Alcotest.test_case "guard off is legacy" `Quick test_guard_off_is_legacy;
    Alcotest.test_case "accounting holds every slot" `Quick
      test_accounting_every_slot;
    Alcotest.test_case "reused id starts without its predecessor's retries"
      `Quick test_reuse_after_victim_finishes;
    Alcotest.test_case "reused id waits its own backoff" `Quick
      test_reuse_keeps_own_backoff;
    Alcotest.test_case "engine checkpoint differential" `Quick
      test_engine_checkpoint_differential;
    Alcotest.test_case "restore tears fault victims down in state order"
      `Quick test_restore_teardown_order;
    Alcotest.test_case "restore rejects garbage" `Quick test_restore_rejects_garbage;
    Alcotest.test_case "restore refuses conflicting facts" `Quick
      test_restore_refuses_conflicts;
    Alcotest.test_case "serve restore refuses conflicting facts" `Quick
      test_serve_restore_refuses_conflicts;
    Alcotest.test_case "restore derives requesting" `Quick
      test_restore_derives_requesting;
    Alcotest.test_case "serve checkpoint differential" `Quick
      test_serve_checkpoint_differential;
    Alcotest.test_case "restore rejects a heap arrival feed would refuse" `Quick
      test_restore_rejects_heap_arrival;
    Alcotest.test_case "restore rejects a heap element the network lacks" `Quick
      test_restore_rejects_heap_element;
    Alcotest.test_case "decoders share one rule" `Quick
      test_decoders_share_one_rule;
    QCheck_alcotest.to_alcotest test_restore_never_raises;
    Alcotest.test_case "borrow while donor faults same slot" `Quick
      test_borrow_donor_faults_same_slot;
    QCheck_alcotest.to_alcotest test_borrow_donor_fault_qcheck;
    Alcotest.test_case "chaos harness quick" `Slow test_chaos_quick ]
