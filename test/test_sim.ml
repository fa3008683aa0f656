(* Tests for the Monte-Carlo evaluation substrate: workload generation,
   blocking-probability estimation and the dynamic discrete-time
   simulation. *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Workload = Rsin_sim.Workload
module Blocking = Rsin_sim.Blocking
module Dynamic = Rsin_sim.Dynamic
module Prng = Rsin_util.Prng

let check = Alcotest.check
let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

(* --- Workload ------------------------------------------------------------ *)

let test_snapshot_bounds () =
  let rng = Prng.create 3 in
  let net = Builders.omega 16 in
  let requests, free = Workload.snapshot rng net in
  List.iter (fun p -> check Alcotest.bool "proc in range" true (p >= 0 && p < 16)) requests;
  List.iter (fun r -> check Alcotest.bool "res in range" true (r >= 0 && r < 16)) free

let test_snapshot_density () =
  let rng = Prng.create 4 in
  let net = Builders.omega 16 in
  let total = ref 0 in
  for _ = 1 to 500 do
    let requests, _ = Workload.snapshot ~req_density:0.25 rng net in
    total := !total + List.length requests
  done;
  let mean = float_of_int !total /. 500. in
  check Alcotest.bool "density 0.25 of 16 ~= 4" true (abs_float (mean -. 4.) < 0.3)

let test_snapshot_extremes () =
  let rng = Prng.create 5 in
  let net = Builders.omega 8 in
  let requests, free = Workload.snapshot ~req_density:1.0 ~res_density:0.0 rng net in
  check Alcotest.int "all request" 8 (List.length requests);
  check Alcotest.int "none free" 0 (List.length free)

let test_preoccupy () =
  let rng = Prng.create 6 in
  let net = Builders.omega 8 in
  let made = Workload.preoccupy rng net ~circuits:3 in
  check Alcotest.int "three circuits" 3 made;
  check Alcotest.int "live" 3 (List.length (Network.circuits net));
  let busy_p, busy_r = Workload.occupied_endpoints net in
  check Alcotest.int "three busy procs" 3 (List.length busy_p);
  check Alcotest.int "three busy ress" 3 (List.length busy_r)

let test_preoccupy_saturation () =
  let rng = Prng.create 7 in
  let net = Builders.omega 8 in
  (* asking for more circuits than processors caps out gracefully *)
  let made = Workload.preoccupy rng net ~circuits:20 in
  check Alcotest.bool "at most 8" true (made <= 8)

let test_with_priorities () =
  let rng = Prng.create 8 in
  let tagged = Workload.with_priorities rng ~levels:10 [ 1; 2; 3 ] in
  check Alcotest.int "length" 3 (List.length tagged);
  List.iter
    (fun (_, y) -> check Alcotest.bool "priority in [1,10]" true (y >= 1 && y <= 10))
    tagged

let test_hetero_spec () =
  let rng = Prng.create 9 in
  let spec = Workload.hetero_spec rng ~types:3 ~requests:[ 0; 1 ] ~free:[ 2; 3; 4 ] in
  check Alcotest.int "requests" 2 (List.length spec.Rsin_core.Hetero.requests);
  check Alcotest.int "free" 3 (List.length spec.Rsin_core.Hetero.free);
  List.iter
    (fun (_, ty, y) ->
      check Alcotest.bool "type in range" true (ty >= 0 && ty < 3);
      check Alcotest.int "no priorities by default" 0 y)
    spec.Rsin_core.Hetero.requests

(* --- Blocking estimation --------------------------------------------------- *)

let test_blocking_range () =
  let rng = Prng.create 10 in
  let cfg = { Blocking.default_config with trials = 100 } in
  List.iter
    (fun s ->
      let e = Blocking.estimate ~config:cfg ~scheduler:s rng (fun () -> Builders.omega 8) in
      check Alcotest.bool "blocking in [0,1]" true
        (e.Blocking.mean_blocking >= 0. && e.Blocking.mean_blocking <= 1.);
      check Alcotest.bool "utilization in [0,1]" true
        (e.Blocking.utilization >= 0. && e.Blocking.utilization <= 1.000001);
      check Alcotest.bool "trials counted" true (e.Blocking.trials_used > 0))
    [ Blocking.Optimal; Blocking.First_fit; Blocking.Address_map ]

let test_optimal_beats_heuristics () =
  (* The paper's core comparison, as a statistical assertion. *)
  let cfg =
    { Blocking.default_config with trials = 200; req_density = 0.7; res_density = 0.7 }
  in
  let run s =
    let rng = Prng.create 11 in
    (Blocking.estimate ~config:cfg ~scheduler:s rng (fun () -> Builders.butterfly 8))
      .Blocking.mean_blocking
  in
  let opt = run Blocking.Optimal in
  let amap = run Blocking.Address_map in
  check Alcotest.bool "optimal << address map" true (opt < amap);
  check Alcotest.bool "optimal below 5%" true (opt < 0.05);
  check Alcotest.bool "address map around 10-35%" true (amap > 0.05 && amap < 0.40)

let test_distributed_matches_optimal_blocking () =
  let cfg = { Blocking.default_config with trials = 100 } in
  let run s =
    let rng = Prng.create 12 in
    (Blocking.estimate ~config:cfg ~scheduler:s rng (fun () -> Builders.omega 8))
      .Blocking.mean_blocking
  in
  check (Alcotest.float 1e-9) "identical estimates"
    (run Blocking.Optimal) (run Blocking.Distributed)

let test_blocking_determinism () =
  let cfg = { Blocking.default_config with trials = 50 } in
  let run () =
    let rng = Prng.create 13 in
    (Blocking.estimate ~config:cfg ~scheduler:Blocking.First_fit rng (fun () ->
         Builders.omega 8))
      .Blocking.mean_blocking
  in
  check (Alcotest.float 1e-12) "same seed, same estimate" (run ()) (run ())

let blocking_allocated_of_consistent =
  qtest "allocated_of: optimal dominates on the same instance" ~count:50
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let net = Builders.omega 8 in
      let requests, free = Workload.snapshot rng net in
      if requests = [] || free = [] then true
      else begin
        let opt = Blocking.allocated_of Blocking.Optimal rng net ~requests ~free in
        let ff = Blocking.allocated_of Blocking.First_fit rng net ~requests ~free in
        let am = Blocking.allocated_of Blocking.Address_map rng net ~requests ~free in
        ff <= opt && am <= opt && opt <= min (List.length requests) (List.length free)
      end)

(* --- Dynamic simulation ------------------------------------------------------ *)

let base_params =
  { Dynamic.arrival_prob = 0.2; transmission_time = 1; mean_service = 4.;
    slots = 400; warmup = 100 }

let test_dynamic_sanity () =
  let rng = Prng.create 14 in
  let net = Builders.omega 8 in
  let m = Dynamic.run rng net base_params in
  check Alcotest.bool "throughput positive" true (m.Dynamic.throughput > 0.);
  check Alcotest.bool "utilization in [0,1]" true
    (m.Dynamic.resource_utilization >= 0. && m.Dynamic.resource_utilization <= 1.);
  check Alcotest.bool "completions happened" true (m.Dynamic.completed > 0);
  check Alcotest.bool "queue nonnegative" true (m.Dynamic.mean_queue >= 0.)

let test_dynamic_low_load_balances () =
  (* At light load the system must keep up: throughput ~= offered load. *)
  let rng = Prng.create 15 in
  let net = Builders.omega 8 in
  let p = { base_params with arrival_prob = 0.05; slots = 3000; warmup = 500 } in
  let m = Dynamic.run rng net p in
  check Alcotest.bool "keeps up with offered load" true
    (m.Dynamic.throughput > 0.8 *. m.Dynamic.offered_load)

let test_dynamic_saturation () =
  (* At overload, utilization approaches 1 and queues grow. *)
  let rng = Prng.create 16 in
  let net = Builders.omega 8 in
  let p = { base_params with arrival_prob = 0.9; mean_service = 8.; slots = 1000 } in
  let m = Dynamic.run rng net p in
  check Alcotest.bool "resources saturated" true (m.Dynamic.resource_utilization > 0.8);
  check Alcotest.bool "queues build" true (m.Dynamic.mean_queue > 0.5)

let test_dynamic_utilization_grows_with_load () =
  let util ap =
    let rng = Prng.create 17 in
    (Dynamic.run rng (Builders.omega 8) { base_params with arrival_prob = ap; slots = 1500 })
      .Dynamic.resource_utilization
  in
  let u1 = util 0.05 and u2 = util 0.5 in
  check Alcotest.bool "monotone in load" true (u2 > u1)

let test_dynamic_schedulers_comparable () =
  let rng1 = Prng.create 18 and rng2 = Prng.create 18 in
  let net = Builders.omega 8 in
  let p = { base_params with arrival_prob = 0.5 } in
  let a = Dynamic.run ~scheduler:Dynamic.Optimal rng1 net p in
  let b = Dynamic.run ~scheduler:Dynamic.First_fit rng2 net p in
  check Alcotest.bool "both complete work" true
    (a.Dynamic.completed > 0 && b.Dynamic.completed > 0)

let test_dynamic_param_validation () =
  let rng = Prng.create 19 in
  let net = Builders.omega 8 in
  Alcotest.check_raises "bad arrival" (Invalid_argument "Dynamic.run: arrival_prob")
    (fun () -> ignore (Dynamic.run rng net { base_params with arrival_prob = 1.5 }));
  Alcotest.check_raises "bad transmission"
    (Invalid_argument "Dynamic.run: transmission_time") (fun () ->
      ignore (Dynamic.run rng net { base_params with transmission_time = 0 }))

let test_dynamic_does_not_mutate () =
  let rng = Prng.create 20 in
  let net = Builders.omega 8 in
  ignore (Workload.preoccupy rng net ~circuits:1);
  let live = List.length (Network.circuits net) in
  ignore (Dynamic.run rng net base_params);
  check Alcotest.int "original circuits intact" live
    (List.length (Network.circuits net))

(* --- Workload traces ------------------------------------------------------- *)

let test_trace_synthesize () =
  let net = Builders.omega 8 in
  let trace =
    Workload.synthesize ~deadline_slack:30 ~cancel_prob:0.2 (Prng.create 5) net
      ~slots:100 ~arrival_prob:0.3
  in
  check Alcotest.bool "nonempty" true (trace <> []);
  let sorted = Workload.sort_trace trace in
  check Alcotest.bool "already time-sorted" true (trace = sorted);
  let arrivals, cancels =
    List.partition (function Workload.Arrive _ -> true | _ -> false) trace
  in
  check Alcotest.bool "some cancellations" true (cancels <> []);
  List.iter
    (function
      | Workload.Arrive { t; id = _; proc; service; deadline; priority = _ } ->
        check Alcotest.bool "proc in range" true
          (proc >= 0 && proc < Network.n_procs net);
        check Alcotest.bool "service positive" true (service >= 1);
        (match deadline with
        | Some d -> check Alcotest.bool "deadline after arrival" true (d > t)
        | None -> Alcotest.fail "slack given but no deadline")
      | Workload.Cancel _ | Workload.Fault _ | Workload.Repair _ -> ())
    arrivals;
  (* Every cancellation refers to an arrived task, strictly later. *)
  List.iter
    (function
      | Workload.Cancel { t; id } ->
        let arrived =
          List.exists
            (function
              | Workload.Arrive { t = ta; id = ia; _ } -> ia = id && ta < t
              | _ -> false)
            arrivals
        in
        check Alcotest.bool "cancel after its arrival" true arrived
      | Workload.Arrive _ | Workload.Fault _ | Workload.Repair _ -> ())
    cancels;
  (* Independent sub-streams: turning cancellations on must not change
     the arrival process drawn from the same seed. *)
  let plain =
    Workload.synthesize (Prng.create 5) net ~slots:100 ~arrival_prob:0.3
  in
  let arrival_keys tr =
    List.filter_map
      (function
        | Workload.Arrive { t; id; proc; _ } -> Some (t, id, proc)
        | Workload.Cancel _ | Workload.Fault _ | Workload.Repair _ -> None)
      tr
  in
  check
    Alcotest.(list (triple int int int))
    "same arrivals with and without cancels" (arrival_keys plain)
    (arrival_keys trace)

let test_trace_jsonl_roundtrip () =
  let net = Builders.omega 8 in
  let trace =
    Workload.synthesize ~deadline_slack:30 ~cancel_prob:0.2 (Prng.create 6) net
      ~slots:60 ~arrival_prob:0.4
  in
  let back = Workload.import (Workload.trace_to_jsonl trace) in
  check Alcotest.bool "round trip preserves the trace" true (back = Ok trace);
  (* File form too. *)
  let file = Filename.temp_file "rsin_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Workload.write_trace file trace;
      check Alcotest.bool "file round trip" true (Workload.read_trace file = trace))

let test_trace_jsonl_rejects_garbage () =
  List.iter
    (fun bad ->
      match Workload.import bad with
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad)
      | Error _ -> ())
    [ "not json";
      "{\"t\":0,\"ev\":\"arrive\",\"id\":0}";
      "{\"t\":0,\"ev\":\"nope\",\"id\":0}";
      "{\"t\":0,\"ev\":\"arrive\",\"id\":0,\"proc\":1,\"service\":0}" ]

(* Malformed lines are reported with their 1-based line number, not an
   exception — and the number names the offending line, not line 1. *)
let test_import_error_lines () =
  let good = "{\"t\":0,\"ev\":\"arrive\",\"id\":0,\"proc\":1,\"service\":2}" in
  List.iter
    (fun (text, line) ->
      match Workload.import text with
      | Ok _ -> Alcotest.fail "accepted a malformed trace"
      | Error e ->
        check Alcotest.int "error line" line e.Workload.line;
        check Alcotest.bool "has a message" true
          (String.length e.Workload.message > 0))
    [ ("garbage", 1);
      (good ^ "\n{\"t\":1,\"ev\":\"cancel\"}", 2);
      (good ^ "\n" ^ good ^ "\n{\"t\":1,\"ev\":\"cancel\",\"id\":\"x\"}", 3);
      ( good ^ "\n{\"t\":1,\"ev\":\"fault\",\"kind\":\"link\",\"idx\":0,\
                \"clock\":-3}",
        2 ) ]

(* A checkpoint writes ints as doubles, exact only up to 2^53: an id of
   2^53 + 1 used to be read, then checkpointed as 2^53. Every int field
   past +/-2^53 is now a line-numbered error; 2^53 itself still reads. *)
let test_import_rejects_inexact_ints () =
  let p53 = 1 lsl 53 in
  let good = "{\"t\":0,\"ev\":\"arrive\",\"id\":0,\"proc\":1,\"service\":2}\n" in
  let arrive ?(t = 1) ?(id = 1) ?(proc = 1) ?(service = 2) ?(deadline = 5)
      ?(priority = 0) () =
    Printf.sprintf
      "{\"t\":%d,\"ev\":\"arrive\",\"id\":%d,\"proc\":%d,\"service\":%d,\
       \"deadline\":%d,\"priority\":%d}"
      t id proc service deadline priority
  in
  let fault ?(t = 1) ?(idx = 0) ?(clock = 0) () =
    Printf.sprintf
      "{\"t\":%d,\"ev\":\"fault\",\"kind\":\"link\",\"idx\":%d,\"clock\":%d}"
      t idx clock
  in
  (match Workload.import (good ^ arrive ~id:p53 ~deadline:(-p53) ()) with
  | Ok [ _; Workload.Arrive a ] ->
    check Alcotest.int "id 2^53 reads" p53 a.id;
    check Alcotest.(option int) "deadline -2^53 reads" (Some (-p53))
      a.deadline
  | Ok _ -> Alcotest.fail "wrong events"
  | Error e -> Alcotest.failf "line %d: %s" e.Workload.line e.Workload.message);
  List.iter
    (fun (field, line) ->
      match Workload.import (good ^ line) with
      | Ok _ -> Alcotest.failf "accepted %s past 2^53" field
      | Error e ->
        check Alcotest.int (field ^ ": error line") 2 e.Workload.line;
        check Alcotest.string (field ^ ": message")
          (Printf.sprintf "field %S is past +/-2^53" field)
          e.Workload.message)
    [ ("t", arrive ~t:(p53 + 1) ());
      ("id", arrive ~id:(p53 + 1) ());
      ("id", Printf.sprintf "{\"t\":1,\"ev\":\"cancel\",\"id\":%d}" (-p53 - 1));
      ("proc", arrive ~proc:(p53 + 1) ());
      ("service", arrive ~service:max_int ());
      ("deadline", arrive ~deadline:(p53 + 1) ());
      ("priority", arrive ~priority:(p53 + 1) ());
      ("t", fault ~t:min_int ());
      ("idx", fault ~idx:(p53 + 1) ());
      ("clock", fault ~clock:(p53 + 1) ()) ]

(* The clocked fault form round-trips, and clock-free events keep the
   original on-disk format (no "clock" key at all). *)
let test_clocked_fault_roundtrip () =
  let trace =
    [ Workload.Fault { t = 2; clock = Some 7; element = Rsin_fault.Fault.Link 3 };
      Workload.Fault { t = 3; clock = None; element = Rsin_fault.Fault.Box 1 };
      Workload.Repair { t = 5; clock = Some 0; element = Rsin_fault.Fault.Res 2 }
    ]
  in
  let jsonl = Workload.trace_to_jsonl trace in
  check Alcotest.bool "clock serialized" true
    (String.length jsonl
    > String.length (String.concat "" (String.split_on_char 'c' jsonl)));
  check Alcotest.bool "round trip" true
    (Workload.import jsonl = Ok trace);
  let slot_only =
    Workload.trace_to_jsonl
      [ Workload.Fault { t = 2; clock = None; element = Rsin_fault.Fault.Link 3 } ]
  in
  check Alcotest.string "clock-free keeps the original format"
    "{\"t\":2,\"ev\":\"fault\",\"kind\":\"link\",\"idx\":3}\n" slot_only

(* Fuzz: however a valid trace is mutated — bytes flipped, lines
   truncated, dropped or replaced by garbage — [import] returns [Ok] or
   a line-numbered [Error]; it never raises. And the unmutated text
   always round-trips to the original trace. *)
let import_fuzz =
  qtest "import survives mutated traces" ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Prng.create (seed + 8000) in
      let net = Builders.omega 8 in
      let base =
        Workload.synthesize ~deadline_slack:20 ~cancel_prob:0.2
          ~priority_levels:3 (Prng.create seed) net ~slots:20
          ~arrival_prob:0.4
      in
      let sched =
        Rsin_fault.Fault.inject_clocked (Prng.create seed) net ~horizon:20
          ~mtbf:30. ~mttr:10. ~clock_range:16
      in
      let trace =
        Workload.sort_trace (base @ Workload.fault_events_clocked sched)
      in
      let text = Workload.trace_to_jsonl trace in
      if Workload.import text <> Ok trace then false
      else begin
        let mutate s =
          if String.length s = 0 then s
          else
            match Prng.int rng 4 with
            | 0 ->
              (* Flip one byte. *)
              let b = Bytes.of_string s in
              let i = Prng.int rng (Bytes.length b) in
              Bytes.set b i (Char.chr (Prng.int rng 256));
              Bytes.to_string b
            | 1 -> String.sub s 0 (Prng.int rng (String.length s))
            | 2 ->
              (* Drop a line. *)
              let lines = String.split_on_char '\n' s in
              let k = Prng.int rng (List.length lines) in
              String.concat "\n"
                (List.filteri (fun i _ -> i <> k) lines)
            | _ -> "{]garbage\n" ^ s
        in
        let mutated = ref text in
        for _ = 1 to 1 + Prng.int rng 3 do
          mutated := mutate !mutated
        done;
        match Workload.import !mutated with
        | Ok _ -> true
        | Error e -> e.Workload.line >= 1
        | exception _ -> false
      end)

let suite =
  [
    Alcotest.test_case "snapshot bounds" `Quick test_snapshot_bounds;
    Alcotest.test_case "trace synthesize" `Quick test_trace_synthesize;
    Alcotest.test_case "trace jsonl roundtrip" `Quick test_trace_jsonl_roundtrip;
    Alcotest.test_case "trace jsonl rejects garbage" `Quick
      test_trace_jsonl_rejects_garbage;
    Alcotest.test_case "import error lines" `Quick test_import_error_lines;
    Alcotest.test_case "import rejects ints past 2^53" `Quick
      test_import_rejects_inexact_ints;
    Alcotest.test_case "clocked fault roundtrip" `Quick
      test_clocked_fault_roundtrip;
    import_fuzz;
    Alcotest.test_case "snapshot density" `Quick test_snapshot_density;
    Alcotest.test_case "snapshot extremes" `Quick test_snapshot_extremes;
    Alcotest.test_case "preoccupy" `Quick test_preoccupy;
    Alcotest.test_case "preoccupy saturation" `Quick test_preoccupy_saturation;
    Alcotest.test_case "with_priorities" `Quick test_with_priorities;
    Alcotest.test_case "hetero_spec" `Quick test_hetero_spec;
    Alcotest.test_case "blocking in range" `Quick test_blocking_range;
    Alcotest.test_case "optimal beats heuristics" `Quick test_optimal_beats_heuristics;
    Alcotest.test_case "distributed = optimal estimates" `Quick
      test_distributed_matches_optimal_blocking;
    Alcotest.test_case "blocking deterministic by seed" `Quick test_blocking_determinism;
    blocking_allocated_of_consistent;
    Alcotest.test_case "dynamic sanity" `Quick test_dynamic_sanity;
    Alcotest.test_case "dynamic low load keeps up" `Quick test_dynamic_low_load_balances;
    Alcotest.test_case "dynamic saturation" `Quick test_dynamic_saturation;
    Alcotest.test_case "dynamic utilization monotone" `Quick
      test_dynamic_utilization_grows_with_load;
    Alcotest.test_case "dynamic schedulers comparable" `Quick
      test_dynamic_schedulers_comparable;
    Alcotest.test_case "dynamic param validation" `Quick test_dynamic_param_validation;
    Alcotest.test_case "dynamic does not mutate" `Quick test_dynamic_does_not_mutate;
  ]
