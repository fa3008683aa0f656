(* E35: sharded multicore serve throughput vs domain count.

   One synthetic workload over a 1024-port network of four disjoint
   omega:256 planes (multi:4:omega:256) is served three times — with a
   domain pool of 1, 2 and 4 — and the feed-to-drain wall time of each
   run is recorded. Because the shard layout (and with it every routing
   and borrowing decision) is independent of the pool size, the three
   runs must produce identical deterministic counters: the bench asserts
   events, allocations, borrows, starvations, cycles and solver work all
   agree before comparing any clock. On a machine with at least four
   cores (and outside --quick) it then asserts the headline scaling
   claim: serving with 4 domains is at least 2x faster than with 1.
   The structured report lands in BENCH_serve.json for the [rsin perf]
   regression gate. *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Workload = Rsin_sim.Workload
module Engine = Rsin_engine.Engine
module Serve = Rsin_engine.Serve
module Prng = Rsin_util.Prng
module Clock = Rsin_util.Clock
module Table = Rsin_util.Table
module Bench_report = Rsin_obs.Bench_report

let seed = 35
let planes = 4
let ports_per_plane = 256

let ok = function
  | Ok v -> v
  | Error e -> failwith ("E35: " ^ e)

let amin = Array.fold_left min infinity
let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let run ?(quick = false) () =
  print_endline "== E35: sharded serve throughput vs domain count ==";
  Printf.printf
    "  (multi:%d:omega:%d — %d ports; one trace served at --domains 1/2/4,\n\
    \   seed %d%s; this machine recommends %d domain(s))\n\n"
    planes ports_per_plane
    (planes * ports_per_plane)
    seed
    (if quick then ", quick" else "")
    (Domain.recommended_domain_count ());
  let report = Bench_report.create ~quick "serve" in
  let slots = if quick then 10 else 40 in
  let runs = if quick then 2 else 3 in
  let net () = Builders.multiplane ~planes (Builders.omega ports_per_plane) in
  let trace =
    Workload.sort_trace
      (Workload.synthesize
         (Prng.create seed)
         (net ())
         ~slots ~arrival_prob:0.12)
  in
  let n_events = List.length trace in
  let config = Engine.Config.default in
  (* Feed-to-drain wall time: network construction and per-shard engine
     compilation are identical at every domain count, so timing from the
     first event isolates the part the pool actually parallelizes. *)
  let serve_once d =
    let s = ok (Serve.create ~config ~domains:d (net ())) in
    let t0 = Clock.now_ns () in
    List.iter (Serve.feed s) trace;
    Serve.drain s;
    let wall = Clock.elapsed_us ~since:t0 in
    (Serve.report s, wall)
  in
  let results =
    List.map
      (fun d ->
        ignore (serve_once d) (* warmup *);
        let reports = Array.init runs (fun _ -> serve_once d) in
        let walls = Array.map snd reports in
        (d, fst reports.(0), walls))
      [ 1; 2; 4 ]
  in
  (* The allocation trajectory must not depend on the pool size. *)
  let _, r1, _ = List.hd results in
  List.iter
    (fun (d, r, _) ->
      let open Serve in
      if
        (r.events, r.allocated, r.borrows, r.starved, r.cycles, r.solver_work)
        <> ( r1.events,
             r1.allocated,
             r1.borrows,
             r1.starved,
             r1.cycles,
             r1.solver_work )
      then begin
        Printf.eprintf
          "E35: domains=%d diverged from domains=1 (allocated %d vs %d)\n" d
          r.allocated r1.allocated;
        assert false
      end)
    results;
  let rows =
    List.map
      (fun (d, r, walls) ->
        let case = Bench_report.case report (Printf.sprintf "domains=%d" d) in
        Bench_report.record_samples case ~name:"serve.wall_us"
          ~kind:Bench_report.Time ~unit_:"us" walls;
        Bench_report.record_count case ~name:"events" ~unit_:"events"
          (float_of_int r.Serve.events);
        Bench_report.record_yield case ~name:"allocated" ~unit_:"circuits"
          (float_of_int r.Serve.allocated);
        Bench_report.record_count case ~name:"borrowed" ~unit_:"tasks"
          (float_of_int r.Serve.borrows);
        Bench_report.record_count case ~name:"starved" ~unit_:"tasks"
          (float_of_int r.Serve.starved);
        Bench_report.record_count case ~name:"cycles" ~unit_:"cycles"
          (float_of_int r.Serve.cycles);
        Bench_report.record_count case ~name:"solver_work" ~unit_:"arcs"
          (float_of_int r.Serve.solver_work);
        Bench_report.record_count case ~name:"shards"
          (float_of_int r.Serve.shards);
        let w = mean walls in
        let _, _, w1 = List.hd results in
        [
          string_of_int d;
          string_of_int r.Serve.shards;
          string_of_int r.Serve.events;
          string_of_int r.Serve.allocated;
          Table.ffix 1 (w /. 1e3);
          Table.ffix 0 (float_of_int n_events /. (w /. 1e6));
          Table.ffix 2 (amin w1 /. amin walls);
        ])
      results
  in
  Table.print
    ~header:
      [ "domains"; "shards"; "events"; "allocated"; "ms/run"; "events/s";
        "speedup" ]
    rows;
  print_newline ();
  let _, _, w1 = List.hd results in
  let _, _, w4 = List.nth results 2 in
  let speedup = amin w1 /. amin w4 in
  let cores = Domain.recommended_domain_count () in
  if (not quick) && cores >= 4 then begin
    if speedup < 2.0 then begin
      Printf.eprintf
        "E35: 4-domain serve only %.2fx faster than 1-domain (want >= 2x)\n"
        speedup;
      assert false
    end;
    Printf.printf
      "  (checked: identical counters at every domain count; 4 domains\n\
      \   %.2fx faster than 1 — the >= 2x scaling gate holds)\n"
      speedup
  end
  else
    Printf.printf
      "  (checked: identical counters at every domain count; >= 2x scaling\n\
      \   gate skipped — %s)\n"
      (if quick then "quick mode" else Printf.sprintf "only %d core(s)" cores);
  Printf.printf "  wrote %s\n\n" (Bench_report.write report)
