(* Tests for the perf-trajectory harness (Rsin_obs.Bench_report): the
   measurement loop, the BENCH_*.json schema round-trip and the
   regression comparator the `rsin perf` gate is built on. *)

module Bench_report = Rsin_obs.Bench_report
module Metrics = Rsin_obs.Metrics
module Json = Rsin_util.Json

let check = Alcotest.check
let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let env = [ ("ocaml", "test"); ("git_sha", "abc"); ("date", "never"); ("os", "Unix") ]

(* --- measurement ---------------------------------------------------------- *)

let test_measure () =
  let calls = ref 0 in
  let m =
    Bench_report.measure ~warmup:2 ~runs:5 (fun () ->
        incr calls;
        ignore (Sys.opaque_identity (List.init 100 Fun.id)))
  in
  check Alcotest.int "warmup + runs calls" 7 !calls;
  check Alcotest.int "wall samples" 5 (Array.length m.Bench_report.wall_us);
  check Alcotest.int "alloc samples" 5 (Array.length m.Bench_report.minor_words);
  Array.iter
    (fun us -> check Alcotest.bool "wall >= 0" true (us >= 0.))
    m.Bench_report.wall_us;
  (* the thunk allocates a 100-element list every run *)
  Array.iter
    (fun w -> check Alcotest.bool "allocation observed" true (w > 0.))
    m.Bench_report.minor_words

let test_record_shapes () =
  let r = Bench_report.create ~env "shape" in
  let case = Bench_report.case r "c" in
  Bench_report.record_samples case ~name:"lat" ~kind:Bench_report.Time
    ~unit_:"us" [| 1.; 2.; 3.; 4. |];
  Bench_report.record_count case ~name:"work" ~unit_:"arcs" 17.;
  check
    Alcotest.(list string)
    "case names" [ "c" ]
    (Bench_report.case_names r);
  (* introspect through the JSON projection *)
  let j = Bench_report.to_json r in
  let cases = Option.get Option.(bind (Json.member "cases" j) Json.to_list) in
  let metrics =
    Option.get Option.(bind (Json.member "metrics" (List.hd cases)) Json.to_obj)
  in
  let m name = List.assoc name metrics in
  let num name field =
    Option.get Option.(bind (Json.member field (m name)) Json.to_num)
  in
  check (Alcotest.float 1e-9) "dist mean" 2.5 (num "lat" "mean");
  check (Alcotest.float 1e-9) "dist p50" 2.5 (num "lat" "p50");
  check (Alcotest.float 1e-9) "dist min" 1. (num "lat" "min");
  check (Alcotest.float 1e-9) "dist max" 4. (num "lat" "max");
  check (Alcotest.float 1e-9) "scalar collapses" 17. (num "work" "mean");
  check (Alcotest.float 1e-9) "scalar p95 = value" 17. (num "work" "p95");
  check (Alcotest.float 1e-9) "scalar n = 1" 1. (num "work" "n");
  (* re-recording a name replaces it rather than duplicating *)
  Bench_report.record_count case ~name:"work" 18.;
  let j = Bench_report.to_json r in
  let cases = Option.get Option.(bind (Json.member "cases" j) Json.to_list) in
  let metrics =
    Option.get Option.(bind (Json.member "metrics" (List.hd cases)) Json.to_obj)
  in
  check Alcotest.int "no duplicate" 2 (List.length metrics)

let test_record_counters () =
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter reg "flow.dinic.arcs") 42;
  Metrics.set (Metrics.gauge reg "g") 1.5;
  ignore (Metrics.histogram reg "h");
  let r = Bench_report.create ~env "ctr" in
  let case = Bench_report.case r "c" in
  Bench_report.record_counters case ~prefix:"warm." reg;
  let j = Bench_report.to_json r in
  let cases = Option.get Option.(bind (Json.member "cases" j) Json.to_list) in
  let metrics =
    Option.get Option.(bind (Json.member "metrics" (List.hd cases)) Json.to_obj)
  in
  (* counters become Count metrics; gauges and histograms are skipped *)
  check Alcotest.int "one metric" 1 (List.length metrics);
  check Alcotest.bool "prefixed name" true
    (List.mem_assoc "warm.flow.dinic.arcs" metrics)

(* --- schema round-trip ---------------------------------------------------- *)

let test_json_roundtrip_fixed () =
  let r = Bench_report.create ~quick:true ~env "fixed" in
  let c1 = Bench_report.case r "a" in
  Bench_report.record_samples c1 ~name:"wall_us" ~kind:Bench_report.Time
    ~unit_:"us" [| 10.5; 11.25; 9.875 |];
  Bench_report.record_count c1 ~name:"work" 123.;
  let c2 = Bench_report.case r "b" in
  Bench_report.record_samples c2 ~name:"minor_words" ~kind:Bench_report.Alloc
    ~unit_:"words" [| 4096.; 4096. |];
  match Bench_report.of_json (Bench_report.to_json r) with
  | Error e -> Alcotest.fail ("round-trip failed: " ^ e)
  | Ok r' ->
    check Alcotest.bool "equal after round-trip" true (Bench_report.equal r r');
    check Alcotest.bool "quick preserved" true (Bench_report.quick r');
    check
      Alcotest.(list string)
      "case order preserved" [ "a"; "b" ]
      (Bench_report.case_names r')

let test_file_roundtrip () =
  let r = Bench_report.create ~env "file" in
  let case = Bench_report.case r "c" in
  Bench_report.record_count case ~name:"x" 7.;
  let dir = Filename.temp_file "rsin_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Bench_report.write ~dir r in
      check Alcotest.string "filename" "BENCH_file.json" (Filename.basename path);
      match Bench_report.read_file path with
      | Ok r' -> check Alcotest.bool "file round-trip" true (Bench_report.equal r r')
      | Error e -> Alcotest.fail e)

let test_of_json_rejects () =
  let reject what s =
    match Bench_report.of_json (Result.get_ok (Json.parse s)) with
    | Ok _ -> Alcotest.fail (what ^ ": should have been rejected")
    | Error _ -> ()
  in
  reject "missing bench" {|{"schema":1,"quick":false,"env":{},"cases":[]}|};
  reject "wrong schema version"
    {|{"bench":"x","schema":99,"quick":false,"env":{},"cases":[]}|};
  reject "bad metric kind"
    {|{"bench":"x","schema":1,"quick":false,"env":{},"cases":[{"case":"c","metrics":{"m":{"kind":"frob","unit":"","n":1,"mean":1,"ci95":0,"p50":1,"p95":1,"min":1,"max":1}}}]}|}

(* Arbitrary reports built through the public API must survive
   to_json/of_json exactly — the schema loses nothing. *)
let report_gen =
  let open QCheck.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (1 -- 8) in
  let samples = array_size (1 -- 12) (float_range 0.001 1e7) in
  let kind =
    oneofl
      [ Bench_report.Time; Bench_report.Alloc; Bench_report.Count;
        Bench_report.Yield ]
  in
  let metric case =
    oneof
      [ map3
          (fun n k xs ->
            Bench_report.record_samples case ~name:n ~kind:k ~unit_:"u" xs)
          name kind samples;
        map2
          (fun n v -> Bench_report.record_count case ~name:n v)
          name (float_range 0. 1e9) ]
  in
  let case r = name >>= fun cn ->
    let c = Bench_report.case r cn in
    list_size (1 -- 4) (metric c) >|= fun (_ : unit list) -> ()
  in
  name >>= fun bench ->
  bool >>= fun quick ->
  let r = Bench_report.create ~quick ~env bench in
  list_size (1 -- 4) (case r) >|= fun (_ : unit list) -> r

let schema_roundtrip =
  qtest "BENCH schema round-trip"
    (QCheck.make
       ~print:(fun r -> Json.to_string (Bench_report.to_json r))
       report_gen)
    (fun r ->
      match Bench_report.of_json (Bench_report.to_json r) with
      | Ok r' -> Bench_report.equal r r'
      | Error _ -> false)

(* --- comparator ----------------------------------------------------------- *)

let mk_pair ~time_factor ~count_factor =
  let mk f =
    let r = Bench_report.create ~env "cmp" in
    let case = Bench_report.case r "c" in
    Bench_report.record_samples case ~name:"wall_us" ~kind:Bench_report.Time
      ~unit_:"us"
      (Array.init 10 (fun i -> (50. +. float_of_int i) *. fst f));
    Bench_report.record_count case ~name:"work" (1000. *. snd f);
    r
  in
  (mk (1., 1.), mk (time_factor, count_factor))

let statuses deltas =
  List.map
    (fun d -> (d.Bench_report.d_metric, d.Bench_report.d_status))
    deltas

let test_diff_clean () =
  let baseline, fresh = mk_pair ~time_factor:1. ~count_factor:1. in
  let deltas = Bench_report.diff ~baseline fresh in
  check Alcotest.int "all metrics compared" 2 (List.length deltas);
  check Alcotest.bool "no regressions" true
    (Bench_report.regressions deltas = [])

let test_diff_detects_slowdown () =
  let baseline, fresh = mk_pair ~time_factor:3. ~count_factor:1. in
  let regs = Bench_report.regressions (Bench_report.diff ~baseline fresh) in
  check Alcotest.int "one regression" 1 (List.length regs);
  let d = List.hd regs in
  check Alcotest.string "it is the time metric" "wall_us" d.Bench_report.d_metric;
  check (Alcotest.float 1e-6) "ratio 3" 3. d.Bench_report.ratio

let test_diff_tolerances_by_kind () =
  (* 1.5x time is inside the 2x default; 1.5x count is way outside 1.01 *)
  let baseline, fresh = mk_pair ~time_factor:1.5 ~count_factor:1.5 in
  let regs = Bench_report.regressions (Bench_report.diff ~baseline fresh) in
  check
    Alcotest.(list (pair string bool))
    "only the count regresses"
    [ ("work", true) ]
    (List.map (fun d -> (d.Bench_report.d_metric, true)) regs);
  (* a 0.5% count drift stays inside 1.01 *)
  let baseline, fresh = mk_pair ~time_factor:1. ~count_factor:1.005 in
  check Alcotest.bool "small count drift ok" true
    (Bench_report.regressions (Bench_report.diff ~baseline fresh) = [])

let test_diff_improvement () =
  let baseline, fresh = mk_pair ~time_factor:0.25 ~count_factor:1. in
  let deltas = Bench_report.diff ~baseline fresh in
  check Alcotest.bool "improvement flagged" true
    (List.mem ("wall_us", Bench_report.Improvement) (statuses deltas));
  check Alcotest.bool "improvements never fail the gate" true
    (Bench_report.regressions deltas = [])

let test_diff_one_sided () =
  let baseline = Bench_report.create ~env "cmp" in
  let bc = Bench_report.case baseline "c" in
  Bench_report.record_count bc ~name:"old_metric" 1.;
  Bench_report.record_count bc ~name:"shared" 5.;
  let fresh = Bench_report.create ~env "cmp" in
  let fc = Bench_report.case fresh "c" in
  Bench_report.record_count fc ~name:"shared" 5.;
  Bench_report.record_count fc ~name:"new_metric" 2.;
  let nc = Bench_report.case fresh "new_case" in
  Bench_report.record_count nc ~name:"x" 1.;
  let st = statuses (Bench_report.diff ~baseline fresh) in
  check Alcotest.bool "only-baseline reported" true
    (List.mem ("old_metric", Bench_report.Only_baseline) st);
  check Alcotest.bool "only-fresh metric reported" true
    (List.mem ("new_metric", Bench_report.Only_fresh) st);
  check Alcotest.bool "only-fresh case reported" true
    (List.mem ("x", Bench_report.Only_fresh) st);
  check Alcotest.bool "shared metric same" true
    (List.mem ("shared", Bench_report.Same) st);
  check Alcotest.bool "one-sided never regresses" true
    (Bench_report.regressions (Bench_report.diff ~baseline fresh) = [])

let test_diff_zero_baseline () =
  let mk v =
    let r = Bench_report.create ~env "cmp" in
    Bench_report.record_count (Bench_report.case r "c") ~name:"m" v;
    r
  in
  let status b f =
    match Bench_report.diff ~baseline:(mk b) (mk f) with
    | [ d ] -> d.Bench_report.d_status
    | _ -> Alcotest.fail "expected one delta"
  in
  check Alcotest.bool "0 vs 0 is same" true (status 0. 0. = Bench_report.Same);
  check Alcotest.bool "0 vs small stays same" true
    (status 0. 0.005 <> Bench_report.Regression);
  check Alcotest.bool "0 vs large regresses" true
    (status 0. 50. = Bench_report.Regression)

(* A yield (more is better) regresses when it falls past the count
   tolerance and improves when it rises; the fresh report's kind
   decides, so a baseline that still calls the metric a count compares
   the same way. *)
let test_diff_yield_direction () =
  let mk record v =
    let r = Bench_report.create ~env "cmp" in
    record (Bench_report.case r "c") ~name:"allocated" v;
    r
  in
  let yield_ c ~name v = Bench_report.record_yield c ~name v in
  let count c ~name v = Bench_report.record_count c ~name v in
  let status base f =
    match Bench_report.diff ~baseline:(mk base 1163.) (mk yield_ f) with
    | [ d ] -> d.Bench_report.d_status
    | _ -> Alcotest.fail "expected one delta"
  in
  List.iter
    (fun (what, base) ->
      check Alcotest.bool (what ^ ": a 2% loss regresses") true
        (status base 1143. = Bench_report.Regression);
      check Alcotest.bool (what ^ ": a 2% gain improves") true
        (status base 1187. = Bench_report.Improvement);
      check Alcotest.bool (what ^ ": a 0.5% loss stays inside") true
        (status base 1157. = Bench_report.Same))
    [ ("yield baseline", yield_); ("count baseline", count) ];
  (* The same loss on a lower-is-better count is an improvement. *)
  (match Bench_report.diff ~baseline:(mk count 1163.) (mk count 1143.) with
  | [ d ] ->
    check Alcotest.bool "a count that falls improves" true
      (d.Bench_report.d_status = Bench_report.Improvement)
  | _ -> Alcotest.fail "expected one delta");
  (* From a zero baseline, gaining a yield is no regression. *)
  match Bench_report.diff ~baseline:(mk yield_ 0.) (mk yield_ 50.) with
  | [ d ] ->
    check Alcotest.bool "0 -> 50 yield improves" true
      (d.Bench_report.d_status = Bench_report.Improvement)
  | _ -> Alcotest.fail "expected one delta"

let test_diff_quick_mismatch () =
  let mk quick =
    let r = Bench_report.create ~quick ~env "cmp" in
    Bench_report.record_count (Bench_report.case r "c") ~name:"m" 1.;
    r
  in
  match Bench_report.diff ~baseline:(mk false) (mk true) with
  | _ -> Alcotest.fail "quick mismatch must raise"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "measure" `Quick test_measure;
    Alcotest.test_case "record shapes" `Quick test_record_shapes;
    Alcotest.test_case "record counters" `Quick test_record_counters;
    Alcotest.test_case "json round-trip (fixed)" `Quick test_json_roundtrip_fixed;
    Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "of_json rejects bad input" `Quick test_of_json_rejects;
    schema_roundtrip;
    Alcotest.test_case "diff clean" `Quick test_diff_clean;
    Alcotest.test_case "diff detects 3x slowdown" `Quick
      test_diff_detects_slowdown;
    Alcotest.test_case "diff per-kind tolerances" `Quick
      test_diff_tolerances_by_kind;
    Alcotest.test_case "diff improvement" `Quick test_diff_improvement;
    Alcotest.test_case "diff one-sided metrics" `Quick test_diff_one_sided;
    Alcotest.test_case "diff zero baseline" `Quick test_diff_zero_baseline;
    Alcotest.test_case "diff reads a yield the other way round" `Quick
      test_diff_yield_direction;
    Alcotest.test_case "diff quick mismatch" `Quick test_diff_quick_mismatch;
  ]
