(* Tests for the online allocation engine: the persistent incremental
   flow graph, the event loop, and the warm-start differential guarantee
   (every warm cycle allocates exactly as many requests as from-scratch
   scheduling of the same snapshot). *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Scheduler = Rsin_core.Scheduler
module Transform1 = Rsin_core.Transform1
module Transform2 = Rsin_core.Transform2
module Workload = Rsin_sim.Workload
module Fault = Rsin_fault.Fault
module Incremental = Rsin_engine.Incremental
module Engine = Rsin_engine.Engine
module Prng = Rsin_util.Prng

let check = Alcotest.check

let topologies () =
  [ Builders.omega 8; Builders.butterfly 8; Builders.benes 8 ]

(* --- Incremental vs from-scratch Transformation 1 ------------------------- *)

(* One solve of a fresh incremental graph must allocate exactly what the
   from-scratch solver allocates, and its circuits must establish
   link-disjointly on the real network. *)
let test_incremental_static () =
  List.iter
    (fun net ->
      List.iter
        (fun seed ->
          let rng = Prng.create seed in
          let requests, free = Workload.snapshot rng net in
          let inc = Incremental.create net in
          List.iter
            (fun p -> Incremental.set_requesting inc ~priority:0 p true)
            requests;
          List.iter (fun r -> Incremental.set_resource_free inc r true) free;
          let n = Incremental.solve inc in
          let reference = Transform1.schedule net ~requests ~free in
          check Alcotest.int
            (Printf.sprintf "%s seed %d allocation" (Network.name net) seed)
            reference.Transform1.allocated n;
          check Alcotest.bool "not skipped" false (Incremental.last_skipped inc);
          check
            Alcotest.(result unit string)
            "conservation" (Ok ()) (Incremental.check inc);
          (* Establishing on a scratch copy proves the circuits are valid
             proc->res paths over pairwise disjoint free links. *)
          let scratch = Network.copy net in
          List.iter
            (fun p ->
              let links = Incremental.circuit_links inc p in
              check Alcotest.bool "starts at proc" true
                (List.mem (Network.proc_link scratch p) links);
              check Alcotest.bool "ends at res" true
                (List.mem
                   (Network.res_link scratch (Incremental.circuit_res inc p))
                   links);
              ignore (Network.establish scratch links))
            (List.init n (Incremental.found inc)))
        [ 1; 2; 3; 4; 5 ])
    (topologies ())

(* Release must return the graph to a state equivalent to from-scratch:
   release every committed circuit, re-enable the endpoints, solve again
   and compare with a fresh solver on the unoccupied network. *)
let test_incremental_release_resolve () =
  let net = Builders.omega 8 in
  let requests, free = Workload.snapshot (Prng.create 42) net in
  let inc = Incremental.create net in
  List.iter (fun p -> Incremental.set_requesting inc ~priority:0 p true) requests;
  List.iter (fun r -> Incremental.set_resource_free inc r true) free;
  let first = Incremental.solve inc in
  check Alcotest.bool "something allocated" true (first > 0);
  List.iter (Incremental.release inc) (List.init first (Incremental.found inc));
  check Alcotest.(result unit string) "conserved after release" (Ok ())
    (Incremental.check inc);
  List.iter (fun p -> Incremental.set_requesting inc ~priority:0 p true) requests;
  List.iter (fun r -> Incremental.set_resource_free inc r true) free;
  let second = Incremental.solve inc in
  check Alcotest.int "same allocation after full release" first second

let test_incremental_clean_skip () =
  let net = Builders.omega 8 in
  let inc = Incremental.create net in
  Incremental.set_requesting inc ~priority:0 0 true;
  List.iter (fun r -> Incremental.set_resource_free inc r true)
    (List.init (Network.n_res net) Fun.id);
  let first = Incremental.solve inc in
  check Alcotest.int "allocated one" 1 first;
  (* Nothing enabled since: solver must answer without running. *)
  let again = Incremental.solve inc in
  check Alcotest.bool "skipped" true (Incremental.last_skipped inc);
  check Alcotest.int "no circuits" 0 again;
  check Alcotest.int "no work" 0 (Incremental.last_work inc)

(* --- Differential: warm engine vs from-scratch scheduling ----------------- *)

(* The acceptance test of the warm-start design: serve a randomized
   workload (arrivals, releases, cancellations, deadlines) and at every
   scheduling cycle compare the engine's allocation count against
   Scheduler.schedule run from scratch on the very same pre-commit
   network snapshot. Counts must be equal cycle by cycle — including
   skipped cycles, which claim 0 without running the solver. *)
let test_differential () =
  let total_cycles = ref 0 in
  List.iter
    (fun net ->
      List.iter
        (fun seed ->
          let trace =
            Workload.synthesize ~deadline_slack:25 ~cancel_prob:0.1
              (Prng.create seed) net ~slots:120 ~arrival_prob:0.3
          in
          let cycles_here = ref 0 in
          let hook snapshot (info : Engine.cycle_info) =
            incr total_cycles;
            incr cycles_here;
            let reference =
              Scheduler.schedule snapshot
                ~requests:(List.map Scheduler.request info.Engine.requests)
                ~resources:(List.map Scheduler.resource info.Engine.free)
            in
            check Alcotest.int
              (Printf.sprintf "%s seed %d cycle at t=%d" (Network.name net)
                 seed info.Engine.time)
              reference.Scheduler.allocated info.Engine.allocated
          in
          let report =
            Engine.run ~cycle_hook:hook
              ~config:(Engine.Config.v ~transmission_time:2 ~max_defer:8 ())
              net trace
          in
          check Alcotest.bool
            (Printf.sprintf "%s seed %d enough cycles" (Network.name net) seed)
            true
            (!cycles_here >= 30);
          check Alcotest.int "cycle count matches report" !cycles_here
            report.Engine.cycles)
        [ 10; 11 ])
    (topologies ());
  check Alcotest.bool "at least 100 differential cycles overall" true
    (!total_cycles >= 100)

(* The same guarantee under the priority discipline, and one notch
   stronger: at every warm cycle, a from-scratch Transformation 2 of the
   very same pre-commit snapshot (same pending processors with the same
   queue-head priorities, same free resources) must allocate the same
   number of requests AND serve the same total priority. Mappings may
   tie-break differently — the objective values may not. *)
let test_differential_priority () =
  let total_cycles = ref 0 in
  List.iter
    (fun net ->
      List.iter
        (fun seed ->
          let trace =
            Workload.synthesize ~deadline_slack:25 ~cancel_prob:0.1
              ~priority_levels:4 (Prng.create seed) net ~slots:150
              ~arrival_prob:0.3
          in
          let hook snapshot (info : Engine.cycle_info) =
            incr total_cycles;
            let label what =
              Printf.sprintf "%s seed %d cycle at t=%d: %s" (Network.name net)
                seed info.Engine.time what
            in
            let reference =
              Transform2.schedule snapshot
                ~requests:info.Engine.request_priorities
                ~free:(List.map (fun r -> (r, 0)) info.Engine.free)
            in
            check Alcotest.int (label "allocation")
              reference.Transform2.allocated info.Engine.allocated;
            let served mapping =
              List.fold_left
                (fun acc (p, _) ->
                  acc + List.assoc p info.Engine.request_priorities)
                0 mapping
            in
            check Alcotest.int (label "total priority served")
              (served reference.Transform2.mapping)
              (served info.Engine.mapping)
          in
          let report =
            Engine.run ~cycle_hook:hook
              ~config:
                (Engine.Config.v ~discipline:Engine.Priority
                   ~transmission_time:2 ~max_defer:8 ())
              net trace
          in
          check Alcotest.bool
            (Printf.sprintf "%s seed %d allocated something" (Network.name net)
               seed)
            true
            (report.Engine.allocated > 0))
        [ 10; 11; 12 ])
    (topologies ());
  check Alcotest.bool "at least 300 priority differential cycles overall" true
    (!total_cycles >= 300)

(* --- Engine accounting ----------------------------------------------------- *)

let run_both net trace =
  ( Engine.run ~config:(Engine.Config.v ~mode:Engine.Warm ()) net trace,
    Engine.run ~config:(Engine.Config.v ~mode:Engine.Rebuild ()) net trace )

let test_task_conservation () =
  let net = Builders.omega 16 in
  let trace =
    Workload.synthesize ~deadline_slack:20 ~cancel_prob:0.15 (Prng.create 3)
      net ~slots:200 ~arrival_prob:0.25
  in
  let warm, rebuild = run_both net trace in
  List.iter
    (fun (r : Engine.report) ->
      let name = Engine.mode_name r.Engine.mode in
      check Alcotest.int
        (name ^ ": every arrival allocated, dropped or still queued")
        r.Engine.arrivals
        (r.Engine.allocated + r.Engine.cancelled + r.Engine.expired
        + r.Engine.left_pending);
      check Alcotest.bool (name ^ ": some tasks dropped") true
        (r.Engine.cancelled > 0 && r.Engine.expired > 0);
      check Alcotest.int (name ^ ": every circuit completes service")
        r.Engine.allocated r.Engine.completed)
    [ warm; rebuild ];
  check Alcotest.bool "warm does less solver work than rebuild" true
    (warm.Engine.solver_work < rebuild.Engine.solver_work)

let test_determinism () =
  let net = Builders.benes 8 in
  let trace =
    Workload.synthesize ~cancel_prob:0.1 (Prng.create 9) net ~slots:80
      ~arrival_prob:0.4
  in
  let a = Engine.run net trace in
  let b = Engine.run net trace in
  check Alcotest.bool "equal reports" true (a = b)

(* A clean cycle must be answered without solver work. A Clos network
   with a single middle switch blocks deterministically: both processors
   of an input switch share one link to the middle stage, so p0's
   circuit cuts p1 off from every resource. The t=1 arrival at p1 is a
   real solve that proves the blockage; the t=2 arrival at the
   already-requesting p1 enables no capacity, so that cycle must be
   answered from the dirty flag alone — and once p0's circuit releases,
   p1's queue drains normally. *)
let test_skipped_cycle () =
  let net = Builders.clos ~m:1 ~n:2 ~r:2 in
  let arrive t id proc =
    Workload.Arrive { t; id; proc; service = 1; deadline = None; priority = 0 }
  in
  let trace = [ arrive 0 0 0; arrive 1 1 1; arrive 2 2 1 ] in
  let config = Engine.Config.v ~transmission_time:10 ~max_defer:100 () in
  let skipped_at = ref [] in
  let hook _net (info : Engine.cycle_info) =
    if info.Engine.skipped then begin
      skipped_at := info.Engine.time :: !skipped_at;
      check Alcotest.int "skipped cycle costs no solver work" 0
        info.Engine.work;
      check Alcotest.int "skipped cycle allocates nothing" 0
        info.Engine.allocated
    end
  in
  let report = Engine.run ~config ~cycle_hook:hook net trace in
  check Alcotest.(list int) "exactly the t=2 cycle is skipped" [ 2 ]
    !skipped_at;
  check Alcotest.int "skipped count in report" 1 report.Engine.skipped_cycles;
  check Alcotest.int "all tasks eventually served" 3 report.Engine.allocated;
  check Alcotest.int "nothing left queued" 0 report.Engine.left_pending

let test_batching_defers () =
  let net = Builders.omega 8 in
  let trace =
    [ Workload.Arrive
        { t = 0; id = 0; proc = 0; service = 2; deadline = None; priority = 0 };
      Workload.Arrive
        { t = 3; id = 1; proc = 1; service = 2; deadline = None; priority = 0 } ]
  in
  let config = Engine.Config.v ~batch_threshold:2 ~max_defer:10 () in
  let times = ref [] in
  let hook _net (info : Engine.cycle_info) =
    times := info.Engine.time :: !times
  in
  let report = Engine.run ~config ~cycle_hook:hook net trace in
  (* The lone request at t=0 is held back until the second arrival
     meets the batch threshold at t=3. *)
  check Alcotest.(list int) "one batched cycle" [ 3 ] (List.rev !times);
  check Alcotest.int "both allocated" 2 report.Engine.allocated;
  check Alcotest.int "max wait is the deferral" 3 report.Engine.max_wait;
  (* With max_defer below the second arrival the first request is
     forced through alone. *)
  let times' = ref [] in
  let hook' _net (info : Engine.cycle_info) =
    times' := info.Engine.time :: !times'
  in
  let report' =
    Engine.run
      ~config:(Engine.Config.v ~batch_threshold:2 ~max_defer:2 ())
      ~cycle_hook:hook' net trace
  in
  check Alcotest.int "forced cycle fires early" 2 (List.hd (List.rev !times'));
  check Alcotest.int "still all allocated" 2 report'.Engine.allocated

(* An Arrive whose deadline is already past (deadline <= t) must count
   as expired on the spot — it used to sit in the queue forever with no
   expiry event scheduled, and could even be served. *)
let test_deadline_dead_on_arrival () =
  let net = Builders.omega 8 in
  let arrive t id proc deadline =
    Workload.Arrive
      { t; id; proc; service = 2; deadline; priority = 0 }
  in
  let trace =
    [ arrive 5 0 0 (Some 5);      (* deadline = arrival slot: expired *)
      arrive 5 1 1 (Some 3);      (* deadline already past: expired *)
      arrive 5 2 2 (Some 9);      (* live *)
      arrive 5 3 3 None ]         (* live *)
  in
  List.iter
    (fun mode ->
      let rep = Engine.run ~config:(Engine.Config.v ~mode ()) net trace in
      let name = Engine.mode_name mode in
      check Alcotest.int (name ^ ": dead-on-arrival tasks expire") 2
        rep.Engine.expired;
      check Alcotest.int (name ^ ": live tasks still served") 2
        rep.Engine.allocated;
      check Alcotest.int (name ^ ": conservation") rep.Engine.arrivals
        (rep.Engine.allocated + rep.Engine.cancelled + rep.Engine.expired
        + rep.Engine.left_pending))
    [ Engine.Warm; Engine.Rebuild; Engine.Token ]

(* An engine event names its task and acts only while the task's record
   waits for that event's seq, so a task reusing a finished task's id
   never meets its predecessor's events. Here task 7's deadline event
   (slot 50) outlives the task, which is served at once; a second task
   7 then waits at p1, whose link is down for good, with no deadline:
   it must stay pending, not expire at 50. *)
let test_reused_id_outlives_deadline () =
  let net = Builders.omega 4 in
  let arrive t proc deadline =
    Workload.Arrive { t; id = 7; proc; service = 2; deadline; priority = 0 }
  in
  let trace =
    [ arrive 0 0 (Some 50);
      Workload.Fault
        { t = 5; clock = None; element = Fault.Link (Network.proc_link net 1) };
      arrive 10 1 None ]
  in
  List.iter
    (fun mode ->
      let name = Engine.mode_name mode in
      let r = Engine.run ~config:(Engine.Config.v ~mode ()) net trace in
      check Alcotest.int (name ^ ": first task completed") 1 r.Engine.completed;
      check Alcotest.int (name ^ ": nothing expired") 0 r.Engine.expired;
      check Alcotest.int (name ^ ": second task still pending") 1
        r.Engine.left_pending)
    [ Engine.Warm; Engine.Rebuild ]

(* The task table holds only live tasks, so an arrival reusing an id a
   live task still holds must not overwrite its record: it is shed and
   accounted, queued or in flight alike. The original completes, and
   once it has, the id is free again. The table is checked every slot. *)
let test_repeated_live_id () =
  let net = Builders.omega 8 in
  let arrive t proc service =
    Workload.Arrive { t; id = 7; proc; service; deadline = None; priority = 0 }
  in
  List.iter
    (fun mode ->
      let name = Engine.mode_name mode in
      let e = Engine.create ~config:(Engine.Config.v ~mode ()) net in
      (* Slot 0: admitted, then a repeat while it is queued; slot 2: a
         repeat while it is in flight; slot 20: reuse after completion. *)
      List.iter (Engine.feed e)
        [ arrive 0 0 5; arrive 0 3 1; arrive 2 1 2; arrive 20 2 3 ];
      for slot = 0 to 30 do
        Engine.advance e ~upto:slot;
        check
          Alcotest.(result unit string)
          (Printf.sprintf "%s: accounting at slot %d" name slot)
          (Ok ()) (Engine.check_accounting e)
      done;
      let r = Engine.report e in
      check Alcotest.int (name ^ ": four arrivals") 4 r.Engine.arrivals;
      check Alcotest.int (name ^ ": both live repeats shed") 2 r.Engine.shed;
      check Alcotest.int (name ^ ": original and reuse allocated") 2
        r.Engine.allocated;
      check Alcotest.int (name ^ ": original and reuse completed") 2
        r.Engine.completed)
    [ Engine.Warm; Engine.Rebuild ]

(* --- Token mode ------------------------------------------------------------ *)

(* Every token-mode cycle allocates exactly what centralized Dinic
   allocates on the same pre-commit snapshot — the same differential the
   warm engine is held to, now with the distributed protocol in the
   loop. *)
let test_token_differential () =
  List.iter
    (fun net ->
      let trace =
        Workload.synthesize ~deadline_slack:25 ~cancel_prob:0.1
          (Prng.create 17) net ~slots:80 ~arrival_prob:0.3
      in
      let cycles_here = ref 0 in
      let hook snapshot (info : Engine.cycle_info) =
        incr cycles_here;
        let reference =
          Scheduler.schedule snapshot
            ~requests:(List.map Scheduler.request info.Engine.requests)
            ~resources:(List.map Scheduler.resource info.Engine.free)
        in
        check Alcotest.int
          (Printf.sprintf "%s token cycle at t=%d" (Network.name net)
             info.Engine.time)
          reference.Scheduler.allocated info.Engine.allocated
      in
      let report =
        Engine.run ~cycle_hook:hook
          ~config:
            (Engine.Config.v ~mode:Engine.Token ~transmission_time:2
               ~max_defer:8 ())
          net trace
      in
      check Alcotest.bool (Network.name net ^ ": enough token cycles") true
        (!cycles_here >= 20);
      check Alcotest.bool (Network.name net ^ ": clock-period work") true
        (report.Engine.solver_work > 0))
    (topologies ())

(* Token mode with mid-cycle (clocked) trace faults: the differential
   still holds at every cycle — the hook's snapshot reflects exactly the
   deaths the token run absorbed — and the usual conservation and
   determinism guarantees survive. *)
let test_token_clocked_faults () =
  let net = Builders.omega 8 in
  let base =
    Workload.synthesize ~deadline_slack:30 (Prng.create 21) net ~slots:100
      ~arrival_prob:0.3
  in
  let sched =
    Fault.inject_clocked (Prng.create 22) net ~horizon:100 ~mtbf:40. ~mttr:15.
      ~clock_range:40
  in
  let trace =
    Workload.sort_trace (base @ Workload.fault_events_clocked sched)
  in
  let hook snapshot (info : Engine.cycle_info) =
    let reference =
      Scheduler.schedule snapshot
        ~requests:(List.map Scheduler.request info.Engine.requests)
        ~resources:(List.map Scheduler.resource info.Engine.free)
    in
    check Alcotest.int
      (Printf.sprintf "faulted token cycle at t=%d" info.Engine.time)
      reference.Scheduler.allocated info.Engine.allocated
  in
  let config =
    Engine.Config.v ~mode:Engine.Token ~transmission_time:2 ~max_defer:8 ()
  in
  let rep = Engine.run ~config ~cycle_hook:hook net trace in
  check Alcotest.bool "faults were applied" true (rep.Engine.faults > 0);
  check Alcotest.bool "repairs were applied" true (rep.Engine.repairs > 0);
  check Alcotest.int "conservation under faults" rep.Engine.arrivals
    (rep.Engine.completed + rep.Engine.cancelled + rep.Engine.expired
    + rep.Engine.left_pending);
  let again = Engine.run ~config net trace in
  let rep' = Engine.run ~config net trace in
  check Alcotest.bool "token runs deterministic" true (again = rep')

let test_token_rejects_priority () =
  Alcotest.check_raises "token + priority"
    (Invalid_argument "Engine.Config: token mode runs the uniform discipline only")
    (fun () ->
      ignore
        (Engine.Config.v ~mode:Engine.Token ~discipline:Engine.Priority ()))

let test_rejects_bad_trace () =
  let net = Builders.omega 8 in
  Alcotest.check_raises "bad processor"
    (Invalid_argument "Engine.feed: bad processor in trace") (fun () ->
      ignore
        (Engine.run net
           [ Workload.Arrive
               { t = 0; id = 0; proc = 99; service = 1; deadline = None; priority = 0 } ]));
  Alcotest.check_raises "bad service"
    (Invalid_argument "Engine.feed: bad service time in trace") (fun () ->
      ignore
        (Engine.run net
           [ Workload.Arrive
               { t = 0; id = 0; proc = 0; service = 0; deadline = None; priority = 0 } ]))

(* --- Config: validation and round-trips ------------------------------------ *)

(* Every field combination a generator can produce must survive
   Config -> JSON -> Config bit-identically: the sharded serve loop
   ships per-domain configs through exactly this codec. *)
let config_gen =
  QCheck.Gen.(
    let* mode = oneofl [ Engine.Warm; Engine.Rebuild; Engine.Token ] in
    let* discipline =
      if mode = Engine.Token then return Engine.Uniform
      else oneofl [ Engine.Uniform; Engine.Priority ]
    in
    let* solver =
      oneofl [ "dinic"; "edmonds-karp"; "push-relabel"; "dinic-csr" ]
    in
    let* transmission_time = int_range 1 9 in
    let* batch_threshold = int_range 1 4 in
    let* max_defer = int_range 1 40 in
    let* faults =
      oneof
        [ return None;
          (let* mtbf = float_range 1. 200. in
           let* mttr = float_range 1. 50. in
           let* granularity = oneofl [ `Slot; `Clock ] in
           return (Some { Engine.Config.mtbf; mttr; granularity })) ]
    in
    return
      (Engine.Config.v ~mode ~discipline ~solver ~transmission_time
         ~batch_threshold ~max_defer ~faults ()))

let config_arb =
  QCheck.make
    ~print:(fun c -> Format.asprintf "%a" Engine.Config.pp c)
    config_gen

let test_config_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Config JSON round-trip" ~count:200 config_arb
       (fun c ->
         match Engine.Config.of_json (Engine.Config.to_json c) with
         | Ok c' -> c = c'
         | Error msg -> QCheck.Test.fail_report msg))

let test_config_roundtrip_text =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Config JSON round-trip through text" ~count:200
       config_arb (fun c ->
         let s = Rsin_util.Json.to_string (Engine.Config.to_json c) in
         match Rsin_util.Json.parse s with
         | Error msg -> QCheck.Test.fail_report msg
         | Ok j -> (
           match Engine.Config.of_json j with
           | Ok c' -> c = c'
           | Error msg -> QCheck.Test.fail_report msg)))

let test_config_validation () =
  let bad what f =
    match f () with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error msg ->
      check Alcotest.bool (what ^ ": message names the module") true
        (String.length msg > 14 && String.sub msg 0 14 = "Engine.Config:")
  in
  bad "transmission_time 0" (fun () ->
      Engine.Config.make ~transmission_time:0 ());
  bad "batch_threshold 0" (fun () -> Engine.Config.make ~batch_threshold:0 ());
  bad "max_defer 0" (fun () -> Engine.Config.make ~max_defer:0 ());
  bad "unknown solver" (fun () -> Engine.Config.make ~solver:"simplex9" ());
  bad "token + priority" (fun () ->
      Engine.Config.make ~mode:Engine.Token ~discipline:Engine.Priority ());
  bad "bad fault plan" (fun () ->
      Engine.Config.make
        ~faults:
          (Some { Engine.Config.mtbf = 0.; mttr = 1.; granularity = `Slot })
        ());
  (match Engine.Config.of_json (Rsin_util.Json.Arr []) with
  | Ok _ -> Alcotest.fail "non-object accepted"
  | Error _ -> ());
  (match
     Engine.Config.of_json
       (Rsin_util.Json.Obj [ ("solver", Rsin_util.Json.Num 3.) ])
   with
  | Ok _ -> Alcotest.fail "mistyped field accepted"
  | Error _ -> ());
  check Alcotest.bool "default is valid and plain" true
    (Engine.Config.default.Engine.Config.mode = Engine.Warm
    && Engine.Config.default.Engine.Config.solver = "dinic")

let suite =
  [
    Alcotest.test_case "incremental matches transform1" `Quick
      test_incremental_static;
    Alcotest.test_case "incremental release+resolve" `Quick
      test_incremental_release_resolve;
    Alcotest.test_case "incremental clean skip" `Quick
      test_incremental_clean_skip;
    Alcotest.test_case "warm differential vs from-scratch" `Slow
      test_differential;
    Alcotest.test_case "priority warm differential vs transform2" `Slow
      test_differential_priority;
    Alcotest.test_case "task conservation" `Quick test_task_conservation;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "skipped clean cycle" `Quick test_skipped_cycle;
    Alcotest.test_case "batched admission" `Quick test_batching_defers;
    Alcotest.test_case "deadline dead on arrival" `Quick
      test_deadline_dead_on_arrival;
    Alcotest.test_case "repeated live id is shed" `Quick test_repeated_live_id;
    Alcotest.test_case "reused id outlives its predecessor's deadline" `Quick
      test_reused_id_outlives_deadline;
    Alcotest.test_case "token differential vs dinic" `Slow
      test_token_differential;
    Alcotest.test_case "token mode under clocked faults" `Quick
      test_token_clocked_faults;
    Alcotest.test_case "token rejects priority" `Quick
      test_token_rejects_priority;
    Alcotest.test_case "rejects bad trace" `Quick test_rejects_bad_trace;
    test_config_roundtrip;
    test_config_roundtrip_text;
    Alcotest.test_case "config validation" `Quick test_config_validation;
  ]
