(* Tests for the rsin_util substrate: PRNG, heap, stats, DSU,
   vec and table rendering. *)

open Rsin_util

let check = Alcotest.check
let qtest name ?(count = 200) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

(* --- Prng ---------------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check Alcotest.bool "different seeds differ" true (!same < 4)

let test_prng_split_independence () =
  let g = Prng.create 99 in
  let h = Prng.split g in
  let xs = List.init 32 (fun _ -> Prng.bits64 g) in
  let ys = List.init 32 (fun _ -> Prng.bits64 h) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let test_prng_split_deterministic () =
  (* Splitting is part of the reproducibility contract: equal parents
     must yield equal children, and the split must advance the parent
     the same way every time. *)
  let a = Prng.create 99 and b = Prng.create 99 in
  let ca = Prng.split a and cb = Prng.split b in
  for _ = 1 to 32 do
    check Alcotest.int64 "children agree" (Prng.bits64 ca) (Prng.bits64 cb);
    check Alcotest.int64 "parents agree after split" (Prng.bits64 a)
      (Prng.bits64 b)
  done

let test_prng_split_n () =
  let g = Prng.create 7 in
  let subs = Prng.split_n g 4 in
  check Alcotest.int "count" 4 (Array.length subs);
  (* All sub-streams pairwise distinct, and distinct from the parent. *)
  let streams =
    Array.to_list (Array.map (fun s -> List.init 16 (fun _ -> Prng.bits64 s)) subs)
    @ [ List.init 16 (fun _ -> Prng.bits64 g) ]
  in
  List.iteri
    (fun i xs ->
      List.iteri
        (fun j ys ->
          if i < j then
            check Alcotest.bool
              (Printf.sprintf "streams %d,%d differ" i j)
              true (xs <> ys))
        streams)
    streams;
  (* Consuming one sub-stream must not perturb another: derived streams
     are independent state. *)
  let h = Prng.create 7 in
  let subs' = Prng.split_n h 4 in
  ignore (Prng.bits64 subs'.(0));
  check Alcotest.int64 "sibling unaffected"
    (let g2 = Prng.create 7 in
     Prng.bits64 (Prng.split_n g2 4).(3))
    (Prng.bits64 subs'.(3));
  check Alcotest.int "split_n 0 is empty" 0 (Array.length (Prng.split_n h 0));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Prng.split_n: negative count") (fun () ->
      ignore (Prng.split_n h (-1)))

let test_prng_copy () =
  let g = Prng.create 5 in
  ignore (Prng.bits64 g);
  let h = Prng.copy g in
  check Alcotest.int64 "copy continues identically" (Prng.bits64 g) (Prng.bits64 h)

let prng_int_range =
  qtest "Prng.int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let g = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Prng.int g n in
        if v < 0 || v >= n then ok := false
      done;
      !ok)

let test_prng_int_covers () =
  let g = Prng.create 7 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Prng.int g 4) <- true
  done;
  check Alcotest.bool "all residues hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let g = Prng.create 11 in
  for _ = 1 to 1000 do
    let x = Prng.float g 3.5 in
    if x < 0. || x >= 3.5 then Alcotest.fail "float out of range"
  done

let test_prng_bernoulli_bias () =
  let g = Prng.create 13 in
  let hits = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Prng.bernoulli g 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "bernoulli(0.3) near 0.3" true (abs_float (p -. 0.3) < 0.02)

let test_prng_geometric_mean () =
  let g = Prng.create 17 in
  let acc = Stats.accum () in
  for _ = 1 to 20000 do
    Stats.observe acc (float_of_int (Prng.geometric g 0.25))
  done;
  (* mean of geometric (failures before success) = (1-p)/p = 3 *)
  check Alcotest.bool "geometric mean near 3" true
    (abs_float (Stats.mean acc -. 3.) < 0.15)

let test_prng_exponential_mean () =
  let g = Prng.create 19 in
  let acc = Stats.accum () in
  for _ = 1 to 20000 do
    Stats.observe acc (Prng.exponential g 2.0)
  done;
  check Alcotest.bool "exp(2) mean near 0.5" true
    (abs_float (Stats.mean acc -. 0.5) < 0.03)

let prng_shuffle_perm =
  qtest "shuffle is a permutation" ~count:200
    QCheck.(pair small_int (int_range 0 50))
    (fun (seed, n) ->
      let g = Prng.create seed in
      let a = Array.init n (fun i -> i) in
      Prng.shuffle g a;
      let sorted = Array.copy a in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prng_sample_distinct =
  qtest "sample_without_replacement distinct and in range" ~count:200
    QCheck.(triple small_int (int_range 0 30) (int_range 0 30))
    (fun (seed, a, b) ->
      let k = min a b and n = max a b in
      let g = Prng.create seed in
      let s = Prng.sample_without_replacement g k n in
      let l = Array.to_list s in
      List.length (List.sort_uniq compare l) = k
      && List.for_all (fun x -> x >= 0 && x < n) l)

let test_prng_invalid_args () =
  let g = Prng.create 0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0));
  Alcotest.check_raises "pick empty" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick g [||]))

(* --- Heap ---------------------------------------------------------------- *)

let heap_sorts =
  qtest "heap pops in sorted order" ~count:300
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (fun x -> Heap.add h x x) xs;
      let rec drain acc =
        match Heap.pop_min h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare xs)

(* Event_heap against a sorted-list model: interleaved adds (few
   distinct times, so seq must break the ties) and pops. *)
let event_heap_model =
  qtest "event heap pops in (time, seq) order" ~count:300
    QCheck.(list (option (pair (int_bound 5) small_int)))
    (fun ops ->
      let h = Event_heap.create () in
      let model = ref [] and seq = ref 0 in
      let pop_both () =
        match !model with
        | [] -> Event_heap.is_empty h
        | (time, s, v) :: rest ->
          model := rest;
          Event_heap.min_time h = time
          && Event_heap.min_seq h = s
          && Event_heap.pop h = v
      in
      let step = function
        | Some (time, v) ->
          Event_heap.add h ~time ~seq:!seq v;
          model := List.merge compare !model [ (time, !seq, v) ];
          incr seq;
          true
        | None -> pop_both ()
      in
      List.for_all step ops
      && Event_heap.fold_sorted h
           (fun ~time ~seq v acc -> (time, seq, v) :: acc)
           []
         = !model
      && Event_heap.length h = List.length !model
      && List.for_all (fun _ -> pop_both ()) !model
      && Event_heap.is_empty h)

type ring_op = Back of int | Front of int | Pop | Remove of int

(* Ring against a list model under every operation the engine's
   per-processor queues use. *)
let ring_model =
  let op =
    QCheck.Gen.(
      frequency
        [ (3, map (fun x -> Back x) (int_bound 9));
          (2, map (fun x -> Front x) (int_bound 9));
          (2, return Pop);
          (2, map (fun x -> Remove x) (int_bound 9)) ])
  in
  let print = function
    | Back x -> Printf.sprintf "back %d" x
    | Front x -> Printf.sprintf "front %d" x
    | Pop -> "pop"
    | Remove x -> Printf.sprintf "remove %d" x
  in
  qtest "ring matches a list model" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list op))
    (fun ops ->
      let q = Ring.create () in
      let model = ref [] in
      let rec remove_first x = function
        | [] -> None
        | y :: rest when y = x -> Some rest
        | y :: rest -> Option.map (fun r -> y :: r) (remove_first x rest)
      in
      let step op =
        (match op with
        | Back x ->
          Ring.push_back q x;
          model := !model @ [ x ]
        | Front x ->
          Ring.push_front q x;
          model := x :: !model
        | Pop -> (
          match !model with
          | [] -> ()
          | x :: rest ->
            if Ring.pop_front q <> x then QCheck.Test.fail_report "pop";
            model := rest)
        | Remove x -> (
          match remove_first x !model with
          | None -> if Ring.remove q x then QCheck.Test.fail_report "removed"
          | Some rest ->
            if not (Ring.remove q x) then QCheck.Test.fail_report "kept";
            model := rest));
        Ring.length q = List.length !model
        && List.for_all Fun.id
             (List.mapi (fun i x -> Ring.get q i = x) !model)
        && (Ring.is_empty q || Ring.front q = List.hd !model)
      in
      List.for_all step ops)

let test_heap_basics () =
  let h = Heap.create ~cmp:compare in
  check Alcotest.bool "empty" true (Heap.is_empty h);
  Heap.add h 5 "five";
  Heap.add h 1 "one";
  Heap.add h 3 "three";
  check Alcotest.int "length" 3 (Heap.length h);
  check Alcotest.(option (pair int string)) "peek" (Some (1, "one")) (Heap.peek_min h);
  check Alcotest.(option (pair int string)) "pop" (Some (1, "one")) (Heap.pop_min h);
  check Alcotest.int "length after pop" 2 (Heap.length h);
  Heap.clear h;
  check Alcotest.bool "cleared" true (Heap.is_empty h);
  check Alcotest.(option (pair int string)) "pop empty" None (Heap.pop_min h)

let test_heap_duplicates () =
  let h = Heap.create ~cmp:compare in
  List.iter (fun k -> Heap.add h k k) [ 2; 2; 1; 2; 1 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | None -> ()
    | Some (k, _) ->
      out := k :: !out;
      drain ()
  in
  drain ();
  check Alcotest.(list int) "dups preserved" [ 2; 2; 2; 1; 1 ] !out

(* --- Stats --------------------------------------------------------------- *)

let test_stats_known () =
  let a = Stats.accum () in
  List.iter (Stats.observe a) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean a);
  check (Alcotest.float 1e-9) "variance" (32. /. 7.) (Stats.variance a);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.min_obs a);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.max_obs a);
  check Alcotest.int "count" 8 (Stats.count a)

let test_stats_empty () =
  let a = Stats.accum () in
  check Alcotest.bool "mean nan" true (Float.is_nan (Stats.mean a));
  check Alcotest.bool "variance nan" true (Float.is_nan (Stats.variance a))

let stats_welford_matches_naive =
  qtest "Welford variance matches two-pass" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let a = Stats.accum () in
      List.iter (Stats.observe a) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.)
      in
      let got = Stats.variance a in
      abs_float (got -. var) <= 1e-6 *. (1. +. abs_float var))

let test_wilson_interval () =
  let lo, hi = Stats.proportion_ci95 ~successes:50 ~trials:100 in
  check Alcotest.bool "contains p-hat" true (lo < 0.5 && hi > 0.5);
  check Alcotest.bool "reasonable width" true (hi -. lo < 0.25);
  let lo0, _ = Stats.proportion_ci95 ~successes:0 ~trials:10 in
  check (Alcotest.float 1e-9) "zero successes -> lo 0" 0.0 lo0;
  let _, hi1 = Stats.proportion_ci95 ~successes:10 ~trials:10 in
  check Alcotest.bool "all successes -> hi 1" true (hi1 <= 1.0)

let test_histogram () =
  let h = Stats.histogram ~lo:0. ~hi:10. ~bins:10 in
  List.iter (Stats.hist_observe h) [ 0.5; 1.5; 1.6; 9.9; 100.; -5. ];
  let counts = Stats.hist_counts h in
  check Alcotest.int "bin 0 (incl clamped low)" 2 counts.(0);
  check Alcotest.int "bin 1" 2 counts.(1);
  check Alcotest.int "bin 9 (incl clamped high)" 2 counts.(9);
  check Alcotest.int "total" 6 (Stats.hist_total h);
  let q = Stats.hist_quantile h 0.5 in
  check Alcotest.bool "median in range" true (q >= 0. && q <= 10.)

let test_hist_quantile_edges () =
  let empty = Stats.histogram ~lo:0. ~hi:1. ~bins:4 in
  check Alcotest.bool "empty histogram -> nan" true
    (Float.is_nan (Stats.hist_quantile empty 0.5));
  let h = Stats.histogram ~lo:0. ~hi:10. ~bins:10 in
  List.iter (Stats.hist_observe h) [ 1.5; 4.5; 8.5 ];
  check (Alcotest.float 1e-9) "q=0 -> first bin midpoint" 0.5
    (Stats.hist_quantile h 0.);
  check (Alcotest.float 1e-9) "q=1 -> last occupied bin midpoint" 8.5
    (Stats.hist_quantile h 1.);
  check (Alcotest.float 1e-9) "q<0 clamps to q=0" (Stats.hist_quantile h 0.)
    (Stats.hist_quantile h (-3.));
  check (Alcotest.float 1e-9) "q>1 clamps to q=1" (Stats.hist_quantile h 1.)
    (Stats.hist_quantile h 7.);
  (* a single-bin histogram answers its midpoint for every quantile *)
  let one = Stats.histogram ~lo:0. ~hi:2. ~bins:1 in
  Stats.hist_observe one 0.3;
  List.iter
    (fun q ->
      check (Alcotest.float 1e-9) "single bin -> midpoint" 1.0
        (Stats.hist_quantile one q))
    [ 0.; 0.25; 0.5; 1. ]

(* --- Dsu ----------------------------------------------------------------- *)

let test_dsu () =
  let d = Dsu.create 6 in
  check Alcotest.int "components" 6 (Dsu.components d);
  check Alcotest.bool "union 0 1" true (Dsu.union d 0 1);
  check Alcotest.bool "union 1 2" true (Dsu.union d 1 2);
  check Alcotest.bool "re-union" false (Dsu.union d 0 2);
  check Alcotest.bool "same" true (Dsu.same d 0 2);
  check Alcotest.bool "not same" false (Dsu.same d 0 5);
  check Alcotest.int "components after" 4 (Dsu.components d)

let dsu_transitivity =
  qtest "dsu connectivity is an equivalence" ~count:100
    QCheck.(list (pair (int_range 0 19) (int_range 0 19)))
    (fun edges ->
      let d = Dsu.create 20 in
      List.iter (fun (a, b) -> ignore (Dsu.union d a b)) edges;
      (* reference: BFS connectivity *)
      let adj = Array.make 20 [] in
      List.iter
        (fun (a, b) ->
          adj.(a) <- b :: adj.(a);
          adj.(b) <- a :: adj.(b))
        edges;
      let reach s =
        let seen = Array.make 20 false in
        let rec go v =
          if not seen.(v) then begin
            seen.(v) <- true;
            List.iter go adj.(v)
          end
        in
        go s;
        seen
      in
      let ok = ref true in
      for a = 0 to 19 do
        let r = reach a in
        for b = 0 to 19 do
          if Dsu.same d a b <> r.(b) then ok := false
        done
      done;
      !ok)

(* --- Vec ----------------------------------------------------------------- *)

let test_vec () =
  let v = Vec.create () in
  check Alcotest.int "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get" 81 (Vec.get v 9);
  Vec.set v 9 (-1);
  check Alcotest.int "set" (-1) (Vec.get v 9);
  let sum = ref 0 in
  Vec.iteri (fun _ x -> sum := !sum + x) v;
  check Alcotest.bool "iteri covers" true (!sum <> 0);
  let a = Vec.to_array v in
  check Alcotest.int "to_array length" 100 (Array.length a);
  let w = Vec.of_array [| 1; 2; 3 |] in
  check Alcotest.int "of_array" 3 (Vec.length w);
  Vec.clear w;
  check Alcotest.int "clear" 0 (Vec.length w);
  Alcotest.check_raises "bounds" (Invalid_argument "Vec: index out of range")
    (fun () -> ignore (Vec.get v 100))

(* --- Table --------------------------------------------------------------- *)

let test_table_render () =
  let s =
    Table.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines = String.split_on_char '\n' (String.trim s) in
  check Alcotest.int "line count" 4 (List.length lines);
  (match lines with
  | header :: sep :: _ ->
    check Alcotest.bool "header first" true
      (String.length header >= String.length "name  value");
    check Alcotest.bool "separator dashes" true (String.contains sep '-')
  | _ -> Alcotest.fail "missing lines");
  check Alcotest.string "fpct" "2.13%" (Table.fpct 0.0213);
  check Alcotest.string "ffix" "3.14" (Table.ffix 2 3.14159)

let test_table_ragged_rows () =
  let s = Table.render ~header:[ "a"; "b"; "c" ] [ [ "x" ]; [ "1"; "2"; "3"; "4" ] ] in
  check Alcotest.bool "renders without exception" true (String.length s > 0)

(* --- Clock --------------------------------------------------------------- *)

let test_clock_monotone () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Clock.now_ns () in
    check Alcotest.bool "never goes backwards" true (Int64.compare t !prev >= 0);
    prev := t
  done

let test_clock_elapsed () =
  let t0 = Clock.now_ns () in
  let x = ref 0 in
  for i = 1 to 100_000 do
    x := !x + i
  done;
  ignore (Sys.opaque_identity !x);
  let dt = Clock.elapsed_us ~since:t0 in
  check Alcotest.bool "elapsed is positive" true (dt > 0.);
  let r, us = Clock.time_us (fun () -> 42) in
  check Alcotest.int "time_us returns the result" 42 r;
  check Alcotest.bool "time_us measures >= 0" true (us >= 0.)

(* Declared [external] in clock.mli, the stub hands every caller an
   unboxed int64: a boxing wrapper would cost 3 words per reading. *)
let test_clock_allocates_nothing () =
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sink := !sink lxor Int64.to_int (Clock.now_ns ())
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !sink);
  check (Alcotest.float 0.) "minor words over 10,000 readings" 0. words

(* --- log-bucketed histogram and exact percentiles ------------------------ *)

let test_loghist_quantiles () =
  let h = Stats.loghist () in
  for i = 1 to 1000 do
    Stats.log_observe h (float_of_int i)
  done;
  check Alcotest.int "total" 1000 (Stats.log_total h);
  let close q expect =
    let v = Stats.log_quantile h q in
    check Alcotest.bool
      (Printf.sprintf "q=%.2f within 3%% of %g (got %g)" q expect v)
      true
      (Float.abs (v -. expect) /. expect < 0.03)
  in
  close 0.5 500.;
  close 0.95 950.;
  close 0.99 990.;
  (* clamped to exact observed extremes *)
  check Alcotest.bool "q=1 clamps to max" true (Stats.log_quantile h 1.0 <= 1000.);
  check Alcotest.bool "q=0 clamps to min" true (Stats.log_quantile h 0.0 >= 1.)

let test_loghist_edge_cases () =
  let h = Stats.loghist () in
  check Alcotest.bool "empty quantile is nan" true
    (Float.is_nan (Stats.log_quantile h 0.5));
  (* nonpositive observations land in a dedicated bucket reported as 0 *)
  Stats.log_observe h (-5.);
  Stats.log_observe h 0.;
  Stats.log_observe h 10.;
  check Alcotest.int "total counts nonpos" 3 (Stats.log_total h);
  check (Alcotest.float 1e-9) "low quantile is 0" 0. (Stats.log_quantile h 0.3)

let test_percentile () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  check (Alcotest.float 1e-9) "median" 3. (Stats.percentile xs 0.5);
  check (Alcotest.float 1e-9) "min" 1. (Stats.percentile xs 0.);
  check (Alcotest.float 1e-9) "max" 5. (Stats.percentile xs 1.);
  check (Alcotest.float 1e-9) "interpolated" 2. (Stats.percentile xs 0.25);
  check (Alcotest.float 1e-9) "between samples" 4.8 (Stats.percentile xs 0.95);
  check Alcotest.bool "input not reordered" true (xs = [| 5.; 1.; 3.; 2.; 4. |]);
  check Alcotest.bool "empty is nan" true (Float.is_nan (Stats.percentile [||] 0.5))

let loghist_brackets_exact =
  (* The sketch's quantile must stay within its guaranteed relative
     error (~gamma) of the exact sample percentile, for any sample. *)
  qtest "loghist tracks exact percentile"
    QCheck.(pair (list_of_size Gen.(1 -- 200) (float_range 0.001 1e6)) (float_range 0. 1.))
    (fun (xs, q) ->
      let h = Stats.loghist () in
      List.iter (Stats.log_observe h) xs;
      let approx = Stats.log_quantile h q in
      let exact = Stats.percentile (Array.of_list xs) q in
      (* Bucket midpoints are within 2.5% of any value in the bucket;
         rank rounding can shift by one sample, so compare against the
         sample range around the exact rank with a 6% slack. *)
      let lo = List.fold_left min infinity xs
      and hi = List.fold_left max neg_infinity xs in
      approx >= lo -. 1e-9 && approx <= hi +. 1e-9
      && (approx <= exact *. 1.06 +. 1e-9 || approx >= exact /. 1.06 -. 1e-9))

(* --- Json ---------------------------------------------------------------- *)

let test_json_parse_basics () =
  let ok s expect =
    match Json.parse s with
    | Ok v -> check Alcotest.bool (Printf.sprintf "parse %S" s) true (Json.equal v expect)
    | Error e -> Alcotest.fail (Printf.sprintf "parse %S failed: %s" s e)
  in
  ok "null" Json.Null;
  ok "true" (Json.Bool true);
  ok " -12.5e2 " (Json.Num (-1250.));
  ok {|"a\nbé"|} (Json.Str "a\nb\xc3\xa9");
  ok {|[1,2,[],{}]|}
    (Json.Arr [ Json.Num 1.; Json.Num 2.; Json.Arr []; Json.Obj [] ]);
  ok {|{"k":[true,null],"s":"x"}|}
    (Json.Obj
       [ ("k", Json.Arr [ Json.Bool true; Json.Null ]); ("s", Json.Str "x") ]);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "parse %S should fail" bad)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "nul"; "\"unterminated"; "1 2"; "{\"a\" 1}"; "[01]" ]

let test_json_accessors () =
  let j =
    Result.get_ok (Json.parse {|{"n":3,"arr":[1,2],"s":"x","b":false}|})
  in
  check Alcotest.int "to_int" 3
    (Option.get Option.(bind (Json.member "n" j) Json.to_int));
  check Alcotest.int "list length" 2
    (List.length (Option.get Option.(bind (Json.member "arr" j) Json.to_list)));
  check Alcotest.string "to_str" "x"
    (Option.get Option.(bind (Json.member "s" j) Json.to_str));
  check Alcotest.bool "to_bool" false
    (Option.get Option.(bind (Json.member "b" j) Json.to_bool));
  check Alcotest.bool "absent member" true (Json.member "zzz" j = None)

let test_json_to_int_exact () =
  (* Only integers a double holds exactly come back: beyond 2^53 a
     number names several ints, and past max_int [int_of_float] is
     unspecified (it turns 1e300 into 0). *)
  let p53 = ldexp 1. 53 in
  let to_int x = Json.to_int (Json.Num x) in
  check Alcotest.(option int) "2^53" (Some (1 lsl 53)) (to_int p53);
  check Alcotest.(option int) "-2^53" (Some (-(1 lsl 53))) (to_int (-.p53));
  check Alcotest.(option int) "2^53 + 2" None (to_int (p53 +. 2.));
  check Alcotest.(option int) "-(2^53 + 2)" None (to_int (-.(p53 +. 2.)));
  check Alcotest.(option int) "1e300" None (to_int 1e300);
  check Alcotest.(option int) "4.7e18" None (to_int 4.7e18);
  check Alcotest.(option int) "non-integral" None (to_int 0.5)

(* One rule: absent and null are "not given", a wrong shape is an
   error, and the error names the path from the document's root. *)
let test_json_decode () =
  let module D = Json.Decode in
  let doc s = Result.get_ok (Json.parse s) in
  let run d s = D.run ~what:"doc" (fun () -> d (doc s)) in
  let b = D.field "a" (D.list (D.field "b" D.int)) in
  check Alcotest.(result (list int) string) "required fields" (Ok [ 1; 2 ])
    (run b {|{"a":[{"b":1},{"b":2}]}|});
  check Alcotest.(result (list int) string) "path to a wrong shape"
    (Error "doc: a[1].b: not an integer within +/-2^53")
    (run b {|{"a":[{"b":1},{"b":"x"}]}|});
  check Alcotest.(result (list int) string) "null is missing"
    (Error "doc: a[0]: missing field \"b\"")
    (run b {|{"a":[{"b":null}]}|});
  check Alcotest.(result (list int) string) "absent is missing"
    (Error "doc: missing field \"a\"") (run b {|{}|});
  check Alcotest.(result (list int) string) "not an object"
    (Error "doc: a[0]: not an object") (run b {|{"a":[3]}|});
  let o = D.opt "k" D.str in
  check Alcotest.(result (option string) string) "optional absent" (Ok None)
    (run o {|{}|});
  check Alcotest.(result (option string) string) "optional null" (Ok None)
    (run o {|{"k":null}|});
  check Alcotest.(result (option string) string) "optional given"
    (Ok (Some "v")) (run o {|{"k":"v"}|});
  check Alcotest.(result (option string) string) "optional of the wrong shape"
    (Error "doc: k: not a string") (run o {|{"k":1}|});
  check Alcotest.(result (list (pair string int)) string) "assoc in order"
    (Ok [ ("y", 2); ("x", 1) ])
    (run (D.assoc D.int) {|{"y":2,"x":1}|});
  check Alcotest.(result int string) "index in range" (Ok 2)
    (run (D.field "i" (D.index 3)) {|{"i":2}|});
  check Alcotest.(result int string) "index out of range"
    (Error "doc: i: 3 is outside [0, 3)")
    (run (D.field "i" (D.index 3)) {|{"i":3}|});
  check Alcotest.(result int string) "a result lifted under its field"
    (Error "doc: c: Sub: bad")
    (run (D.field "c" (fun _ -> D.ok (Error "Sub: bad"))) {|{"c":{}}|});
  check Alcotest.(result int string) "fail at the root"
    (Error "doc: no") (run (fun _ -> D.fail "no") {|{}|})

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) (float_range (-1e9) 1e9);
        map (fun n -> Json.Num (float_of_int n)) int;
        map (fun s -> Json.Str s) (small_string ~gen:printable) ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [ (3, scalar);
          (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (value (depth - 1))));
          ( 1,
            map
              (fun kvs ->
                (* duplicate keys would round-trip ambiguously *)
                let seen = Hashtbl.create 8 in
                Json.Obj
                  (List.filter
                     (fun (k, _) ->
                       if Hashtbl.mem seen k then false
                       else (Hashtbl.add seen k (); true))
                     kvs))
              (list_size (0 -- 4)
                 (pair (small_string ~gen:printable) (value (depth - 1)))) ) ]
  in
  value 3

let json_roundtrip =
  qtest "json print/parse round-trip"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' -> Json.equal j j'
      | Error _ -> false)

(* Integral numbers below 1e15 print without Printf; the bytes must stay
   exactly those of "%.0f", or every checkpoint and trace would change. *)
let test_json_integers_match_printf () =
  let same x =
    check Alcotest.string
      (Printf.sprintf "%h" x)
      (Printf.sprintf "%.0f" x)
      (Json.to_string (Json.Num x))
  in
  List.iter same [ -0.; 0.; 1e15 -. 1.; -.(1e15 -. 1.); 1.; -1.; 4503599627370496. ]

let json_integers_random =
  qtest "json integral numbers print as %.0f"
    QCheck.(make Gen.(map Float.round (float_range (-1e15 +. 1.) (1e15 -. 1.))))
    (fun x -> Json.to_string (Json.Num x) = Printf.sprintf "%.0f" x)

(* The printer as it stood before it wrote straight into its buffer:
   a closure per character, a fresh string per integral number, and
   List.iteri per list. It is the reference the printer must match
   byte for byte. *)
let reference_to_string v =
  let escape_string b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  in
  let num_string x =
    match Float.classify_float x with
    | FP_nan | FP_infinite -> "null"
    | _ ->
      if Float.is_integer x && Float.abs x < 1e15 then
        if x = 0. && Float.sign_bit x then "-0"
        else string_of_int (int_of_float x)
      else Printf.sprintf "%.17g" x
  in
  let b = Buffer.create 256 in
  let rec go = function
    | Json.Null -> Buffer.add_string b "null"
    | Json.Bool x -> Buffer.add_string b (string_of_bool x)
    | Json.Num x -> Buffer.add_string b (num_string x)
    | Json.Str s -> escape_string b s
    | Json.Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        l;
      Buffer.add_char b ']'
    | Json.Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          go v)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* Trees over the printer's every case: the edges of the integral fast
   path (-0, +-1e15 and their neighbours), non-integral floats, NaN and
   the infinities, every control character, quotes, backslashes and
   bytes past ASCII in strings and keys, empty arrays and objects, and
   duplicate keys (the printer keeps them). *)
let printer_gen =
  let open QCheck.Gen in
  let num =
    oneof
      [ oneofl
          [ 0.; -0.; 1e15; -1e15; 1e15 -. 1.; -.(1e15 -. 1.); 1e15 +. 2.;
            0x1p53; -0x1p53; 0.5; -0.5; 1e-7; 1e300; -1e300; 4.9e-324;
            Float.nan; Float.infinity; Float.neg_infinity; Float.pi;
            Float.max_float; Float.min_float ];
        map float_of_int int;
        map Float.round (float_range (-1e16) 1e16);
        float ]
  in
  let str =
    let char =
      frequency
        [ (4, printable); (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\r' ]);
          (1, map Char.chr (0 -- 0x1f)); (1, map Char.chr (0x7f -- 0xff)) ]
    in
    string_size ~gen:char (0 -- 12)
  in
  let scalar =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun x -> Json.Num x) num; map (fun s -> Json.Str s) str;
        return (Json.Arr []); return (Json.Obj []) ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [ (2, scalar);
          (1, map (fun l -> Json.Arr l) (list_size (0 -- 5) (value (depth - 1))));
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (0 -- 5) (pair str (value (depth - 1)))) ) ]
  in
  value 4

let json_printer_matches_reference =
  qtest "json printer = reference printer, byte for byte" ~count:1000
    (QCheck.make ~print:reference_to_string printer_gen)
    (fun j -> Json.to_string j = reference_to_string j)

(* Shared small ints print what fresh ones would: [Json.int] hands out
   preallocated values for 0 .. 4095 and builds the rest. *)
let test_json_int_shared () =
  List.iter
    (fun n ->
      check Alcotest.bool (string_of_int n) true
        (Json.equal (Json.int n) (Json.Num (float_of_int n))))
    [ min_int; -1; 0; 1; 4095; 4096; 1 lsl 53 ];
  check Alcotest.bool "shared" true (Json.int 17 == Json.int 17)

let printer_doc k =
  Json.Obj
    [ ("k", Json.int k); ("s", Json.Str (String.make (k mod 97) 'x'));
      ("a", Json.Arr (List.init (k mod 41) (fun i -> Json.int (i * 4093))));
      ("f", Json.Num (float_of_int k /. 7.)) ]

(* The printer prints into one buffer per domain, kept from call to
   call. A string it returned is never written again; a document
   holding an earlier result prints whole; a call made while a print is
   under way on the same domain (a signal handler run at one of its
   allocations) prints into a buffer of its own, and the print it
   interrupted carries on unharmed. *)
let test_json_printer_reentrant () =
  let a = Json.to_string (printer_doc 7) in
  let b = Json.to_string (printer_doc 300) in
  check Alcotest.string "an earlier result stands" (reference_to_string (printer_doc 7)) a;
  check Alcotest.string "the later one" (reference_to_string (printer_doc 300)) b;
  let nested = Json.Arr [ Json.Str a; printer_doc 3; Json.Str b ] in
  check Alcotest.string "nested" (reference_to_string nested) (Json.to_string nested);
  let big = Json.Arr (List.init 10_000 (fun i -> printer_doc i)) in
  let want = reference_to_string big in
  let printing = ref false and inside = ref 0 and wrong = ref 0 in
  let handler _ =
    if !printing then incr inside;
    let k = !inside + 11 in
    if Json.to_string (printer_doc k) <> reference_to_string (printer_doc k) then
      incr wrong
  in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle handler) in
  let tick = { Unix.it_interval = 0.0002; it_value = 0.0002 } in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL tick);
      for _ = 1 to 5 do
        printing := true;
        let s = Json.to_string big in
        printing := false;
        if s <> want then incr wrong
      done);
  check Alcotest.int "every print right" 0 !wrong;
  check Alcotest.bool "some print ran inside another" true (!inside > 0)

(* Two domains printing at once each use their own buffer. *)
let test_json_printer_two_domains () =
  let run base () =
    List.for_all
      (fun k -> Json.to_string (printer_doc k) = reference_to_string (printer_doc k))
      (List.init 300 (fun i -> base + i))
  in
  let other = Domain.spawn (run 1000) in
  let mine = run 0 () in
  check Alcotest.bool "this domain" true mine;
  check Alcotest.bool "the other domain" true (Domain.join other)

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng split" `Quick test_prng_split_independence;
    Alcotest.test_case "prng split deterministic" `Quick
      test_prng_split_deterministic;
    Alcotest.test_case "prng split_n" `Quick test_prng_split_n;
    Alcotest.test_case "prng copy" `Quick test_prng_copy;
    prng_int_range;
    Alcotest.test_case "prng int coverage" `Quick test_prng_int_covers;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng bernoulli bias" `Quick test_prng_bernoulli_bias;
    Alcotest.test_case "prng geometric mean" `Quick test_prng_geometric_mean;
    Alcotest.test_case "prng exponential mean" `Quick test_prng_exponential_mean;
    prng_shuffle_perm;
    prng_sample_distinct;
    Alcotest.test_case "prng invalid args" `Quick test_prng_invalid_args;
    heap_sorts;
    event_heap_model;
    ring_model;
    Alcotest.test_case "heap basics" `Quick test_heap_basics;
    Alcotest.test_case "heap duplicates" `Quick test_heap_duplicates;
    Alcotest.test_case "stats known values" `Quick test_stats_known;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    stats_welford_matches_naive;
    Alcotest.test_case "wilson interval" `Quick test_wilson_interval;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "hist_quantile edges" `Quick test_hist_quantile_edges;
    Alcotest.test_case "dsu basics" `Quick test_dsu;
    dsu_transitivity;
    Alcotest.test_case "vec" `Quick test_vec;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table ragged rows" `Quick test_table_ragged_rows;
    Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
    Alcotest.test_case "clock elapsed" `Quick test_clock_elapsed;
    Alcotest.test_case "clock now_ns allocates nothing" `Quick
      test_clock_allocates_nothing;
    Alcotest.test_case "loghist quantiles" `Quick test_loghist_quantiles;
    Alcotest.test_case "loghist edge cases" `Quick test_loghist_edge_cases;
    Alcotest.test_case "percentile" `Quick test_percentile;
    loghist_brackets_exact;
    Alcotest.test_case "json parse basics" `Quick test_json_parse_basics;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "json to_int is exact or None" `Quick
      test_json_to_int_exact;
    Alcotest.test_case "json decode: one rule, one path" `Quick test_json_decode;
    json_roundtrip;
    Alcotest.test_case "json integers print as %.0f" `Quick
      test_json_integers_match_printf;
    json_integers_random;
    json_printer_matches_reference;
    Alcotest.test_case "json ints below 4096 are shared" `Quick test_json_int_shared;
    Alcotest.test_case "json printer re-entered" `Quick test_json_printer_reentrant;
    Alcotest.test_case "json printer on two domains" `Quick
      test_json_printer_two_domains;
  ]
