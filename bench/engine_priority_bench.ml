(* E30: warm-started priority discipline vs rebuild-per-cycle.

   The E29 comparison, under the priority discipline: the same
   prioritized synthetic workload is served once on the persistent
   network (Warm: no arc carries a cost; each cycle switches the
   pending requests' source arcs on one priority class at a time,
   highest first, and extends the flow with Csr.dinic after each) and
   once rebuilding Transformation 2 from scratch every cycle (Rebuild:
   network scan + graph build + from-zero successive shortest paths).
   Work units are comparable, as in E29: capacity updates + residual
   arcs scanned for Warm; links scanned + arcs built + arcs scanned for
   Rebuild.

   Unlike E29, the whole-run allocation totals of the two modes are NOT
   asserted equal: per cycle both compute an optimum of the same
   objective (maximum allocation, then maximum total head priority —
   the differential tests in test/test_engine.ml and test/test_csr.ml
   pin that on shared snapshots), but optimal mappings tie-break differently, the
   trajectories diverge, and totals may drift a little either way. The
   table reports both so the drift is visible next to the work gap. *)

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
  let config mode =
    Engine.Config.v ~mode ~discipline:Engine.Priority ~transmission_time:2
      ~max_defer:8 ()
  in
  print_endline "E30: online engine, priority discipline, warm vs rebuild";
  Printf.printf
    "  (omega:16, %d arrival slots, transmission 2, 4 priority levels, seed 11)\n\n"
    slots;
  let report = Bench_report.create ~quick "engine_priority" in
  let rows =
    List.map
      (fun arrival_prob ->
        let trace =
          Workload.synthesize ~deadline_slack:60 ~priority_levels:4
            (Prng.create 11) net ~slots ~arrival_prob
        in
        let case =
          Bench_report.case report (Printf.sprintf "arrival=%.2f" arrival_prob)
        in
        let go mode prefix =
          let result = ref None in
          let m =
            Bench_report.measure ~warmup:1 ~runs:(if quick then 2 else 3)
              (fun () ->
                result := Some (Engine.run ~config:(config mode) net trace))
          in
          Bench_report.record case ~prefix m;
          Option.get !result
        in
        let warm = go Engine.Warm "warm" and rebuild = go Engine.Rebuild "rebuild" in
        Bench_report.record_count case ~name:"warm.solver_work" ~unit_:"arcs"
          (float_of_int warm.Engine.solver_work);
        Bench_report.record_count case ~name:"rebuild.solver_work"
          ~unit_:"arcs"
          (float_of_int rebuild.Engine.solver_work);
        Bench_report.record_yield case ~name:"warm.allocated"
          (float_of_int warm.Engine.allocated);
        Bench_report.record_yield case ~name:"rebuild.allocated"
          (float_of_int rebuild.Engine.allocated);
        let saved =
          1.
          -. float_of_int warm.Engine.solver_work
             /. float_of_int (max 1 rebuild.Engine.solver_work)
        in
        [ Table.ffix 2 arrival_prob;
          string_of_int warm.Engine.arrivals;
          string_of_int warm.Engine.cycles;
          string_of_int warm.Engine.allocated;
          string_of_int rebuild.Engine.allocated;
          string_of_int warm.Engine.solver_work;
          string_of_int rebuild.Engine.solver_work;
          Table.fpct saved ])
      churn_rates
  in
  Table.print
    ~header:
      [ "arrival"; "arrivals"; "cycles"; "warm alloc"; "rebuild alloc";
        "warm work"; "rebuild work"; "saved" ]
    rows;
  Printf.printf "  wrote %s\n" (Bench_report.write report);
  print_newline ()
