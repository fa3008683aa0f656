(* E36: robustness guard overhead on a fault-free replay.

   The guard layer must be free when nothing is going wrong: on a
   fault-free workload, admission control is one queue-length check per
   arrival, and the retry/quarantine machinery is never entered. The
   same synthetic trace is replayed through the warm engine with the
   guard off and with the default guard policy on; the two runs must
   follow the identical trajectory (all counters equal, nothing shed or
   retried), and the guarded run's min-of-N wall time may exceed the
   unguarded one's by at most 5% — the gate the CI perf check pins via
   BENCH_guard.json. A third, overloaded case (tight queue bound, high
   arrival rate) is recorded for the report but not gated: it measures
   what shedding costs when the guard is actually working. *)

module Builders = Rsin_topology.Builders
module Engine = Rsin_engine.Engine
module Workload = Rsin_sim.Workload
module Policy = Rsin_guard.Policy
module Prng = Rsin_util.Prng
module Clock = Rsin_util.Clock
module Table = Rsin_util.Table
module Bench_report = Rsin_obs.Bench_report

let seed = 36
let amin = Array.fold_left min infinity

let run ?(quick = false) () =
  let slots = if quick then 150 else 400 in
  let runs = if quick then 3 else 5 in
  print_endline "== E36: guard overhead on a fault-free replay ==";
  Printf.printf
    "  (omega:32, %d arrival slots, arrival 0.25, seed %d; min of %d runs;\n\
    \   gate: guarded wall <= 1.05x unguarded on the identical trajectory)\n\n"
    slots seed runs;
  let report = Bench_report.create ~quick "guard" in
  let net () = Builders.omega 32 in
  let trace =
    Workload.sort_trace
      (Workload.synthesize ~mean_service:3.0 ~cancel_prob:0.05
         (Prng.create seed) (net ()) ~slots ~arrival_prob:0.25)
  in
  let serve_once cfg =
    let e = Engine.create ~config:cfg (net ()) in
    let t0 = Clock.now_ns () in
    List.iter (Engine.feed e) trace;
    Engine.drain e;
    let wall = Clock.elapsed_us ~since:t0 in
    (Engine.report e, wall)
  in
  let bench name cfg =
    ignore (serve_once cfg) (* warmup *);
    let samples = Array.init runs (fun _ -> serve_once cfg) in
    let walls = Array.map snd samples in
    let r = fst samples.(0) in
    let case = Bench_report.case report name in
    Bench_report.record_samples case ~name:"replay.wall_us"
      ~kind:Bench_report.Time ~unit_:"us" walls;
    Bench_report.record_yield case ~name:"completed" ~unit_:"tasks"
      (float_of_int r.Engine.completed);
    Bench_report.record_count case ~name:"shed" ~unit_:"tasks"
      (float_of_int r.Engine.shed);
    Bench_report.record_count case ~name:"solver_work" ~unit_:"arcs"
      (float_of_int r.Engine.solver_work);
    (r, walls)
  in
  let off, w_off = bench "guard-off" (Engine.Config.v ()) in
  let on, w_on =
    bench "guard-on" (Engine.Config.v ~guard:(Some (Policy.v ())) ())
  in
  (* Fault-free: the guard must not perturb the run at all. *)
  if off <> on then begin
    Printf.eprintf "E36: guarded fault-free replay diverged from unguarded\n";
    assert false
  end;
  assert (on.Engine.shed = 0 && on.Engine.retries = 0 && on.Engine.quarantines = 0);
  let overloaded, w_over =
    bench "guard-overloaded"
      (Engine.Config.v
         ~guard:(Some (Policy.v ~queue_bound:2 ~shed_policy:Policy.Deadline_aware ()))
         ())
  in
  ignore overloaded;
  let overhead = (amin w_on /. amin w_off) -. 1.0 in
  Table.print
    ~header:[ "case"; "completed"; "shed"; "min wall (ms)" ]
    [ [ "guard off"; string_of_int off.Engine.completed; "0";
        Table.ffix 2 (amin w_off /. 1e3) ];
      [ "guard on"; string_of_int on.Engine.completed;
        string_of_int on.Engine.shed; Table.ffix 2 (amin w_on /. 1e3) ];
      [ "guard on, overloaded"; string_of_int overloaded.Engine.completed;
        string_of_int overloaded.Engine.shed; Table.ffix 2 (amin w_over /. 1e3) ] ];
  print_newline ();
  if quick then
    Printf.printf
      "  (checked: identical fault-free trajectory; overhead %+.1f%% — 5%% \
       gate skipped in quick mode)\n"
      (100. *. overhead)
  else begin
    if overhead > 0.05 then begin
      Printf.eprintf "E36: guard overhead %.1f%% exceeds the 5%% budget\n"
        (100. *. overhead);
      assert false
    end;
    Printf.printf
      "  (checked: identical fault-free trajectory; guard overhead %+.1f%% \
       within the 5%% budget)\n"
      (100. *. overhead)
  end;
  Printf.printf "  wrote %s\n\n" (Bench_report.write report)
