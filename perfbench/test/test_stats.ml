(* Unit tests of the serving benchmark's own statistics. *)

let feq = Alcotest.float 1e-9

let test_rank () =
  (* nearest rank: p99 of 1000 samples is the 990th smallest *)
  Alcotest.(check int) "p99 of 1000" 990 (Stats.rank 1000 99.);
  Alcotest.(check int) "p50 of 1000" 500 (Stats.rank 1000 50.);
  Alcotest.(check int) "p50 of 3" 2 (Stats.rank 3 50.);
  Alcotest.(check int) "p100 is the maximum" 7 (Stats.rank 7 100.);
  Alcotest.(check int) "p0 clamps to the minimum" 1 (Stats.rank 7 0.);
  let sorted = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p99 value" 990. (Stats.percentile sorted 99.);
  Alcotest.check feq "median of unsorted" 3. (Stats.median [| 5.; 1.; 3.; 4.; 2. |]);
  Alcotest.check feq "empty percentile" 0. (Stats.percentile [||] 50.)

let test_percentile_rule () =
  let check n expected =
    Alcotest.(check (option (float 0.)))
      (Printf.sprintf "highest reportable percentile of %d" n)
      expected (Stats.max_percentile n)
  in
  (* ten samples beyond: p99 needs 1000 samples, p99.9 needs 10000 *)
  check 999 (Some 95.);
  check 1000 (Some 99.);
  check 9999 (Some 99.);
  check 10000 (Some 99.9);
  check 200 (Some 95.);
  check 199 (Some 90.);
  check 20 (Some 50.);
  check 19 None;
  check 0 None;
  Alcotest.(check int) "samples beyond p99 of 1000" 10 (Stats.beyond 1000 99.)

let test_slot_boundaries () =
  let c = Stats.slot_clock () in
  (* (slot, host time) of each feed; slots 2, 5 and 6 have no events *)
  let feeds = [ (0, 100); (0, 110); (1, 150); (3, 400); (3, 420); (3, 430);
                (4, 500); (7, 900) ] in
  let flushing = List.map (fun (slot, now) -> Stats.tick c ~slot ~now) feeds in
  Alcotest.(check (list bool)) "a feed flushes when it opens a new slot"
    [ false; false; true; true; false; false; true; true ] flushing;
  (* one sample per slot with a successor, the gap of empty slots
     charged to the slot before them; the last slot yields none *)
  Alcotest.(check (array int)) "per-slot durations" [| 50; 250; 100; 400 |]
    (Stats.to_array c.Stats.durations);
  let single = Stats.slot_clock () in
  List.iter (fun now -> ignore (Stats.tick single ~slot:5 ~now)) [ 1; 2; 3 ];
  Alcotest.(check int) "one slot, no sample" 0 (Stats.length single.Stats.durations)

let test_ratio_bases () =
  Alcotest.check feq "refused over arrivals, cancels excluded" 0.25
    (Stats.refused_ratio ~shed:10 ~expired:5 ~given_up:3 ~left_pending:2
       ~arrivals:80);
  Alcotest.check feq "no arrivals" 0.
    (Stats.refused_ratio ~shed:0 ~expired:0 ~given_up:0 ~left_pending:0
       ~arrivals:0);
  Alcotest.check feq "borrow yield is borrows over probe rounds" 0.4
    (Stats.borrow_yield ~borrows:4 ~starved:6);
  Alcotest.check feq "no probe rounds" 0. (Stats.borrow_yield ~borrows:0 ~starved:0);
  Alcotest.(check int) "barriers: one per distinct slot plus the drain" 11
    (Stats.barriers ~distinct_slots:10);
  Alcotest.(check int) "an empty trace still drains once" 1
    (Stats.barriers ~distinct_slots:0);
  Alcotest.check feq "barrier share: round trip x barriers / serve time" 0.2
    (Stats.barrier_share ~barrier_ns:1_000 ~barriers:11 ~serve_ns:55_000);
  Alcotest.check feq "zero serve time" 0.
    (Stats.barrier_share ~barrier_ns:1_000 ~barriers:11 ~serve_ns:0);
  Alcotest.check feq "max over mean" 2. (Stats.imbalance [| 1; 2; 3; 6 |]);
  Alcotest.check feq "balanced" 1. (Stats.imbalance [| 4; 4 |])

let test_ivec () =
  let v = Stats.ivec () in
  for i = 1 to 5000 do Stats.push v i done;
  Alcotest.(check int) "grows past its first block" 5000 (Stats.length v);
  Alcotest.(check int) "keeps order" 4321 (Stats.get v 4320);
  Alcotest.(check int) "sum" 12_502_500 (Stats.sum v)

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "nearest-rank percentiles" `Quick test_rank;
          Alcotest.test_case "percentile rule: ten samples beyond" `Quick
            test_percentile_rule;
          Alcotest.test_case "slot boundaries across empty slots" `Quick
            test_slot_boundaries;
          Alcotest.test_case "ratio bases" `Quick test_ratio_bases;
          Alcotest.test_case "growable buffer" `Quick test_ivec ] ) ]
