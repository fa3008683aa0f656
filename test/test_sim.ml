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

(* The channel reader holds a line to [max_line_bytes]: a longer one is
   reported with its number and skipped up to its newline, the lines
   after it keep their numbers, a line of exactly the cap and a CRLF
   line still read, and a last line without a newline counts. A channel
   that fails to read ends the stream like end of file. *)
let test_channel_line_cap () =
  let cap = Workload.max_line_bytes in
  let line id =
    Printf.sprintf "{\"t\":0,\"ev\":\"arrive\",\"id\":%d,\"proc\":1,\"service\":2}" id
  in
  let pad l n = l ^ String.make (n - String.length l) ' ' in
  let text =
    String.concat "\n"
      [ line 1; String.make (cap + 1) 'x'; line 3 ^ "\r"; pad (line 4) cap;
        pad (line 5) (cap + 1); String.make (3 * cap) 'y'; ""; line 8 ]
  in
  let fold ic =
    let errors = ref [] in
    let ids =
      Workload.fold_trace_channel_lenient ic
        ~on_error:(fun e -> errors := e :: !errors)
        ~init:[]
        ~f:(fun acc ev -> Workload.event_id ev :: acc)
    in
    (List.rev ids, List.rev !errors)
  in
  let file = Filename.temp_file "rsin_line_cap" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc text);
      let ids, errors = In_channel.with_open_bin file fold in
      check Alcotest.(list int) "the lines served" [ 1; 3; 4; 8 ] ids;
      check Alcotest.(list int) "the lines dropped" [ 2; 5; 6 ]
        (List.map (fun e -> e.Workload.line) errors);
      List.iter
        (fun e ->
          check Alcotest.string "message"
            (Printf.sprintf "line longer than %d bytes" cap)
            e.Workload.message)
        errors;
      let ic = open_in_bin file in
      close_in ic;
      check Alcotest.(list int) "a failing channel is an empty stream" [] (fst (fold ic)))

(* --- The one-pass decoder against the parser it replaced ------------------ *)

(* The split-and-assoc-list parser the one-pass decoder replaced, moved
   here verbatim as the reference of the differential tests below. *)
module Reference = struct
  open Workload
  module Fault = Rsin_fault.Fault

  exception Malformed of int * string

  (* Minimal parser for the flat one-object-per-line format above: no
     nesting, values are ints or quoted strings without escapes. *)
  let parse_fields line lineno =
    let fail msg = raise (Malformed (lineno, msg)) in
    let line = String.trim line in
    let n = String.length line in
    if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then
      fail "expected a {...} object";
    let body = String.sub line 1 (n - 2) in
    if String.trim body = "" then []
    else
      String.split_on_char ',' body
      |> List.map (fun field ->
             match String.index_opt field ':' with
             | None -> fail "expected \"key\":value"
             | Some i ->
               let key = String.trim (String.sub field 0 i) in
               let value =
                 String.trim (String.sub field (i + 1) (String.length field - i - 1))
               in
               let unquote s =
                 let l = String.length s in
                 if l >= 2 && s.[0] = '"' && s.[l - 1] = '"' then
                   String.sub s 1 (l - 2)
                 else s
               in
               (unquote key, unquote value))

  (* Checkpoints write ints as JSON numbers, which hold every integer up
     to 2^53 exactly and no more (Json.to_int): an id past it would be
     written as another task's. *)
  let max_exact_int = 1 lsl 53

  let int_value lineno k v =
    match int_of_string_opt v with
    | Some n when n >= -max_exact_int && n <= max_exact_int -> n
    | Some _ ->
      raise (Malformed (lineno, Printf.sprintf "field %S is past +/-2^53" k))
    | None ->
      raise (Malformed (lineno, Printf.sprintf "field %S is not an integer" k))

  let opt_int_field lineno fields k =
    match List.assoc_opt k fields with
    | None -> None
    | Some v -> Some (int_value lineno k v)

  let parse_line lineno line =
    let fields = parse_fields line lineno in
    let fail msg = raise (Malformed (lineno, msg)) in
    let int_field k =
      match List.assoc_opt k fields with
      | None -> fail (Printf.sprintf "missing field %S" k)
      | Some v -> int_value lineno k v
    in
    match List.assoc_opt "ev" fields with
    | Some "arrive" ->
      let service = int_field "service" in
      if service < 1 then fail "field \"service\" must be >= 1";
      let proc = int_field "proc" in
      if proc < 0 then fail "field \"proc\" must be >= 0";
      let priority =
        match opt_int_field lineno fields "priority" with
        | None -> 0
        | Some y when y >= 0 -> y
        | Some _ -> fail "field \"priority\" must be >= 0"
      in
      [ Arrive
          { t = int_field "t"; id = int_field "id"; proc; service;
            deadline = opt_int_field lineno fields "deadline"; priority } ]
    | Some "cancel" -> [ Cancel { t = int_field "t"; id = int_field "id" } ]
    | Some (("fault" | "repair") as which) ->
      let idx = int_field "idx" in
      if idx < 0 then fail "field \"idx\" must be >= 0";
      let element =
        match List.assoc_opt "kind" fields with
        | Some "link" -> Fault.Link idx
        | Some "box" -> Fault.Box idx
        | Some "res" -> Fault.Res idx
        | Some other -> fail (Printf.sprintf "unknown element kind %S" other)
        | None -> fail "missing field \"kind\""
      in
      let clock =
        match opt_int_field lineno fields "clock" with
        | Some c when c < 0 -> fail "field \"clock\" must be >= 0"
        | clock -> clock
      in
      let t = int_field "t" in
      if which = "fault" then [ Fault { t; clock; element } ]
      else [ Repair { t; clock; element } ]
    | Some other -> fail (Printf.sprintf "unknown event kind %S" other)
    | None -> fail "missing field \"ev\""

  (* The streaming core under every reader: pull lines one at a time from
     [next_line], parse, fold. Constant memory in the input length — the
     accumulator is whatever the caller builds — and events are delivered
     in file order, so a serve loop can act on each line as it arrives.
     A malformed line is handed to [on_error] and dropped instead of
     aborting the whole stream — a serve socket must survive hostile or
     truncated input; the strict readers below stop by raising out of
     [on_error]. *)
  let fold_lines_lenient next_line ~on_error ~init ~f =
    let rec go lineno acc =
      match next_line () with
      | None -> acc
      | Some line ->
        let lineno = lineno + 1 in
        if String.trim line = "" then go lineno acc
        else (
          match
            try parse_line lineno line with
            | Malformed _ as e -> raise e
            | e -> raise (Malformed (lineno, Printexc.to_string e))
          with
          | events -> go lineno (List.fold_left f acc events)
          | exception Malformed (line, message) ->
            on_error { line; message };
            go lineno acc)
    in
    go 0 init
end

(* Every non-blank line of [text] under one fold: its line number and
   its event or message. *)
let fold_results fold text =
  let lines = String.split_on_char '\n' text in
  let cursor = ref lines and lineno = ref 0 in
  let next () =
    match !cursor with
    | [] -> None
    | l :: rest ->
      cursor := rest;
      incr lineno;
      Some l
  in
  let out = ref [] in
  fold next
    ~on_error:(fun { Workload.line; message } -> out := (line, Error message) :: !out)
    ~init:()
    ~f:(fun () ev -> out := (!lineno, Ok ev) :: !out);
  List.rev !out

let decoder_results =
  fold_results (fun next ~on_error ~init ~f ->
      Workload.fold_lines_lenient next ~on_error ~init ~f)

let reference_results =
  fold_results (fun next ~on_error ~init ~f ->
      Reference.fold_lines_lenient next ~on_error ~init ~f)

let int_keys = [ "t"; "id"; "proc"; "service"; "deadline"; "priority"; "idx"; "clock" ]

(* A JSON integer literal, as the decoder reads an int field. *)
let json_int v =
  let n = String.length v in
  let d = if n > 0 && v.[0] = '-' then 1 else 0 in
  n > d
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub v d (n - d))
  && not (v.[d] = '0' && n > d + 1)

let json_scalar v =
  v = "true" || v = "false" || v = "null"
  || (match Rsin_util.Json.parse v with Ok (Rsin_util.Json.Num _) -> true | _ -> false)

let clean_quoted s =
  let n = String.length s in
  n >= 2 && s.[0] = '"' && s.[n - 1] = '"'
  && not (String.exists (fun c -> c = '"' || c = '\\') (String.sub s 1 (n - 2)))

(* Why the split parser and the decoder may disagree on a line, from the
   split parser's own view of it (its trimmed pieces): the changes the
   stricter grammar made on purpose. Empty when none applies. *)
let grammar_changes line =
  let classes = ref [] in
  let add c = if not (List.mem c !classes) then classes := c :: !classes in
  if String.contains line '\012' then add "form feed as whitespace";
  (* a comma inside a string cut the split parser's field in two *)
  let quoted = ref false in
  String.iter
    (fun c ->
      if c = '"' then quoted := not !quoted
      else if c = ',' && !quoted then add "comma inside a string")
    line;
  let l = String.trim line in
  let n = String.length l in
  if n >= 2 && l.[0] = '{' && l.[n - 1] = '}' then begin
    let body = String.sub l 1 (n - 2) in
    let pieces = if String.trim body = "" then [] else String.split_on_char ',' body in
    let keys =
      List.filter_map
        (fun p ->
          match String.index_opt p ':' with
          | None -> None
          | Some i ->
            let k = String.trim (String.sub p 0 i) in
            let v = String.trim (String.sub p (i + 1) (String.length p - i - 1)) in
            if not (clean_quoted k) then add "unquoted or malformed key";
            let key = if clean_quoted k then String.sub k 1 (String.length k - 2) else k in
            if String.contains k '\\' || String.contains v '\\' then add "backslash";
            let quoted_v = clean_quoted v in
            if List.mem key int_keys then begin
              if String.length v > 0 && v.[0] = '"' then add "quoted int"
              else if (not (json_int v)) && int_of_string_opt v <> None then
                add "int_of_string literal (0x, 0o, 0b, _, +, leading zero)"
            end
            else if key = "ev" || key = "kind" then begin
              if not quoted_v then add "unquoted string"
            end
            else if not (quoted_v || json_scalar v) then add "value not a JSON scalar";
            Some key)
        pieces
    in
    if List.length (List.sort_uniq compare keys) <> List.length keys then
      add "duplicate key"
  end;
  !classes

(* Mutations of one generated line: bytes flipped, truncated, fields
   duplicated, reordered or added, whitespace inserted, ints quoted or
   written in int_of_string's other forms. *)
let mutate_line rng line =
  let n = String.length line in
  let fields () =
    if n < 2 then [] else String.split_on_char ',' (String.sub line 1 (n - 2))
  in
  let join fs = "{" ^ String.concat "," fs ^ "}" in
  let pick l = List.nth l (Prng.int rng (List.length l)) in
  let at i s = String.sub line 0 i ^ s ^ String.sub line i (n - i) in
  let rewrite_int f =
    (* the value of one field whose value is an int *)
    let fs = fields () in
    let ints =
      List.filter
        (fun fld ->
          match String.index_opt fld ':' with
          | Some i -> int_of_string_opt (String.sub fld (i + 1) (String.length fld - i - 1)) <> None
          | None -> false)
        fs
    in
    if ints = [] then line
    else
      let target = pick ints in
      join
        (List.map
           (fun fld ->
             if fld == target then
               let i = String.index fld ':' in
               String.sub fld 0 (i + 1)
               ^ f (String.sub fld (i + 1) (String.length fld - i - 1))
             else fld)
           fs)
  in
  if n = 0 then line
  else
    match Prng.int rng 8 with
    | 0 ->
      let b = Bytes.of_string line in
      Bytes.set b (Prng.int rng n) (Char.chr (Prng.int rng 256));
      Bytes.to_string b
    | 1 -> String.sub line 0 (Prng.int rng n)
    | 2 -> (
      match fields () with [] -> line | fs -> join (fs @ [ pick fs ]))
    | 3 ->
      let fs = Array.of_list (fields ()) in
      Prng.shuffle rng fs;
      join (Array.to_list fs)
    | 4 -> at (Prng.int rng (n + 1)) (pick [ " "; "\t"; "\r"; "\012"; "  " ])
    | 5 -> rewrite_int (fun v -> "\"" ^ v ^ "\"")
    | 6 ->
      rewrite_int (fun v ->
          match (int_of_string_opt v, Prng.int rng 4) with
          | Some k, 0 when k >= 0 -> Printf.sprintf "0x%x" k
          | _, 1 -> "+" ^ v
          | _, 2 -> "0" ^ v
          | _ -> if String.length v > 1 then String.sub v 0 1 ^ "_" ^ String.sub v 1 (String.length v - 1) else v ^ ".0")
    | _ ->
      let v = pick [ "1"; "-2.5e3"; "\"x\""; "true"; "null"; "abc"; "[1]"; "0x1" ] in
      at (n - 1) (Printf.sprintf ",\"k%d\":%s" (Prng.int rng 3) v)

(* Every line [trace_to_jsonl] emits — deadlines, cancels, priorities,
   clocked faults and repairs — and mutations of them, through both
   folds: where both accept, the same event on the same line; where
   only one does, a change the stricter grammar made on purpose. *)
let decoder_differential =
  qtest "decoder = split parser, but for the grammar's listed changes" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Prng.create (seed + 9100) in
      let net = Builders.omega 8 in
      let base =
        Workload.synthesize ~deadline_slack:20 ~cancel_prob:0.2 ~priority_levels:3
          (Prng.create seed) net ~slots:15 ~arrival_prob:0.4
      in
      let sched =
        Rsin_fault.Fault.inject_clocked (Prng.create seed) net ~horizon:15
          ~mtbf:20. ~mttr:8. ~clock_range:16
      in
      let trace = Workload.sort_trace (base @ Workload.fault_events_clocked sched) in
      let lines = String.split_on_char '\n' (Workload.trace_to_jsonl trace) in
      let lines =
        List.map
          (fun l ->
            if Prng.int rng 2 = 0 then l
            else begin
              let l = ref l in
              for _ = 1 to 1 + Prng.int rng 2 do
                l := mutate_line rng !l
              done;
              !l
            end)
          lines
      in
      let text = String.concat "\n" lines in
      let mine = decoder_results text and theirs = reference_results text in
      let line_of k = List.nth (String.split_on_char '\n' text) (k - 1) in
      let lines_of r = List.map fst r in
      List.for_all
        (fun k ->
          match (List.assoc_opt k mine, List.assoc_opt k theirs) with
          | Some (Ok a), Some (Ok b) -> a = b
          | Some (Error _), Some (Error _) | None, None -> true
          | _ ->
            grammar_changes (line_of k) <> []
            || QCheck.Test.fail_reportf "line %d %S: decoder %s, split parser %s" k
                 (line_of k)
                 (match List.assoc_opt k mine with
                 | Some (Ok _) -> "accepts" | Some (Error m) -> m | None -> "skips")
                 (match List.assoc_opt k theirs with
                 | Some (Ok _) -> "accepts" | Some (Error m) -> m | None -> "skips"))
        (List.sort_uniq compare (lines_of mine @ lines_of theirs)))

(* A line with one bad field gets the message the split parser gave. *)
let test_decoder_messages () =
  let arrive = "{\"t\":3,\"ev\":\"arrive\",\"id\":7,\"proc\":1,\"service\":2,\"deadline\":9,\"priority\":1}" in
  let fault = "{\"t\":3,\"ev\":\"fault\",\"kind\":\"link\",\"idx\":4,\"clock\":2}" in
  let cancel = "{\"t\":3,\"ev\":\"cancel\",\"id\":7}" in
  let set line key v =
    (* [line] with [key]'s value replaced by [v], or dropped when [v] is
       None *)
    let fs = String.split_on_char ',' (String.sub line 1 (String.length line - 2)) in
    let pre = Printf.sprintf "\"%s\":" key in
    let fs =
      List.filter_map
        (fun f ->
          if String.length f >= String.length pre
             && String.sub f 0 (String.length pre) = pre
          then Option.map (fun v -> pre ^ v) v
          else Some f)
        fs
    in
    "{" ^ String.concat "," fs ^ "}"
  in
  let cases =
    List.concat_map
      (fun (line, keys) ->
        List.concat_map
          (fun k ->
            [ set line k None; set line k (Some "1.5"); set line k (Some "-1");
              set line k (Some "0"); set line k (Some "\"x\"");
              set line k (Some "9007199254740993"); set line k (Some "[1]") ])
          keys)
      [ (arrive, [ "t"; "id"; "proc"; "service"; "deadline"; "priority" ]);
        (fault, [ "t"; "idx"; "clock" ]); (cancel, [ "t"; "id" ]) ]
    @ [ set arrive "ev" (Some "\"warp\""); set arrive "ev" None;
        set fault "kind" (Some "\"lonk\""); set fault "kind" None;
        "not json"; "{}"; "{\"t\":1"; "[]"; "{\"t\"}"; "{\"t\":1,}" ]
  in
  List.iter
    (fun line ->
      match (decoder_results line, reference_results line) with
      | [ (_, Error m) ], [ (_, Error m') ] -> check Alcotest.string line m' m
      | [ (_, Ok a) ], [ (_, Ok b) ] -> check Alcotest.bool line true (a = b)
      | _ -> Alcotest.failf "%s: the decoder and the split parser disagree" line)
    cases

(* Decoding allocates the event it returns and nothing else: the fold's
   scratch is allocated once, and no line costs a word beyond its
   event's own blocks. *)
let test_decoder_allocates_only_events () =
  let net = Builders.omega 8 in
  let trace =
    Workload.sort_trace
      (Workload.synthesize ~deadline_slack:20 ~cancel_prob:0.2 ~priority_levels:3
         (Prng.create 3) net ~slots:40 ~arrival_prob:0.4
      @ Workload.fault_events_clocked
          (Rsin_fault.Fault.inject_clocked (Prng.create 3) net ~horizon:40
             ~mtbf:20. ~mttr:8. ~clock_range:16))
  in
  let lines =
    Workload.trace_to_jsonl trace |> String.split_on_char '\n'
    |> List.filter (( <> ) "") |> List.map Option.some |> Array.of_list
  in
  let out = Array.make (Array.length lines) (Workload.Cancel { t = 0; id = 0 }) in
  let fold k =
    let i = ref 0 in
    let next () =
      if !i < k then begin
        let l = lines.(!i) in
        incr i;
        l
      end
      else None
    in
    let f j ev =
      out.(j) <- ev;
      j + 1
    in
    fun () ->
      ignore
        (Workload.fold_lines_lenient next
           ~on_error:(fun _ -> Alcotest.fail "a generated line was refused")
           ~init:0 ~f)
  in
  let words f =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    f ();
    let c = Gc.minor_words () in
    c -. b -. (b -. a)
  in
  let n = Array.length lines in
  let empty = fold 0 and full = fold n in
  empty ();
  full ();
  let fixed = words (fold 0) and total = words (fold n) in
  let events =
    Array.fold_left (fun acc ev -> acc + Obj.reachable_words (Obj.repr ev)) 0 out
  in
  check Alcotest.bool "some faults and deadlines" true
    (Array.exists (function Workload.Fault _ -> true | _ -> false) out
    && Array.exists (function Workload.Arrive { deadline = Some _; _ } -> true | _ -> false) out);
  check (Alcotest.float 0.) "words beyond the events'" 0.
    (total -. fixed -. float_of_int events)

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
    decoder_differential;
    Alcotest.test_case "decoder keeps the split parser's messages" `Quick
      test_decoder_messages;
    Alcotest.test_case "decoder allocates only the events" `Quick
      test_decoder_allocates_only_events;
    Alcotest.test_case "channel reader caps a line" `Quick test_channel_line_cap;
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
