(* E29: warm-started incremental scheduling vs rebuild-per-cycle.

   The online engine serves the same synthetic workload twice — once
   with the persistent incremental flow graph (Warm) and once rebuilding
   the Transformation-1 network from scratch every cycle (Rebuild) — and
   compares solver work across churn rates. Work is counted in
   comparable units: capacity updates + residual arcs scanned for Warm;
   links scanned by the build + arcs of the built graph + arcs scanned
   by the from-zero solve for Rebuild. Both modes allocate the optimal
   number of requests every cycle (max-flow values are unique), so the
   comparison is pure scheduling cost, not quality.

   The expected shape: the lower the churn, the larger the fraction of
   rebuild work that is pure graph reconstruction of an almost-unchanged
   network, so warm savings grow as arrival rate drops; at high churn
   the gap narrows to the per-cycle rebuild overhead because every cycle
   really has new flow to find. The skipped column counts cycles the
   dirty-flag check answered with zero solver work — nonzero only when a
   non-enabling event (deadline expiry, cancellation, batch wakeup) hits
   a topologically blocked request, which random workloads rarely
   produce (test/test_engine.ml pins that path deterministically). *)

module Builders = Rsin_topology.Builders
module Engine = Rsin_engine.Engine
module Workload = Rsin_sim.Workload
module Prng = Rsin_util.Prng
module Table = Rsin_util.Table
module Bench_report = Rsin_obs.Bench_report

let churn_rates = [ 0.02; 0.05; 0.1; 0.3; 0.6 ]

let run ?(quick = false) () =
  let slots = if quick then 150 else 400 in
  let net = Builders.omega 16 in
  let config mode = Engine.Config.v ~mode ~transmission_time:2 ~max_defer:8 () in
  print_endline "E29: online engine, warm start vs rebuild per cycle";
  Printf.printf "  (omega:16, %d arrival slots, transmission 2, seed 11)\n\n"
    slots;
  let report = Bench_report.create ~quick "engine" in
  let rows =
    List.map
      (fun arrival_prob ->
        (* Deadlines give the engine non-enabling events (expiries of
           blocked requests), which is what makes clean-cycle skips
           visible at high churn. *)
        let trace =
          Workload.synthesize ~deadline_slack:60 (Prng.create 11) net ~slots
            ~arrival_prob
        in
        let case =
          Bench_report.case report (Printf.sprintf "arrival=%.2f" arrival_prob)
        in
        let timed mode prefix =
          let result = ref None in
          let m =
            Bench_report.measure ~warmup:1 ~runs:(if quick then 2 else 3)
              (fun () -> result := Some (Engine.run ~config:(config mode) net trace))
          in
          Bench_report.record case ~prefix m;
          Option.get !result
        in
        let warm = timed Engine.Warm "warm" in
        let rebuild = timed Engine.Rebuild "rebuild" in
        assert (warm.Engine.allocated = rebuild.Engine.allocated);
        Bench_report.record_count case ~name:"warm.solver_work" ~unit_:"arcs"
          (float_of_int warm.Engine.solver_work);
        Bench_report.record_count case ~name:"rebuild.solver_work"
          ~unit_:"arcs"
          (float_of_int rebuild.Engine.solver_work);
        Bench_report.record_yield case ~name:"allocated"
          (float_of_int warm.Engine.allocated);
        Bench_report.record_count case ~name:"cycles"
          (float_of_int warm.Engine.cycles);
        let saved =
          1.
          -. float_of_int warm.Engine.solver_work
             /. float_of_int (max 1 rebuild.Engine.solver_work)
        in
        [ Table.ffix 2 arrival_prob;
          string_of_int warm.Engine.arrivals;
          string_of_int warm.Engine.cycles;
          string_of_int warm.Engine.skipped_cycles;
          string_of_int warm.Engine.solver_work;
          string_of_int rebuild.Engine.solver_work;
          Table.fpct saved ])
      churn_rates
  in
  Table.print
    ~header:
      [ "arrival"; "arrivals"; "cycles"; "skipped"; "warm work";
        "rebuild work"; "saved" ]
    rows;
  Printf.printf "  wrote %s\n" (Bench_report.write report);
  print_newline ()
