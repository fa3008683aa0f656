(* E31: the online engine under element faults.

   The same synthetic workload is served at increasing fault churn (a
   seeded MTBF/MTTR renewal process over links, boxes and resource
   ports; mttr = mtbf/4) on three topology families. For each rate the
   engine runs Warm — every fault/repair is an O(1) capacity delta on
   the persistent flow graph followed by a residual re-augmentation —
   and Rebuild, which recompiles the degraded network from scratch every
   cycle. Two invariants are asserted while benching:

   - count parity: at every entered warm cycle, a from-scratch
     Scheduler run on the same degraded pre-commit snapshot allocates
     the same number of requests (the optimality theorems survive on
     the surviving subnetwork);
   - both modes apply the identical fault schedule.

   The reported shape: moderate churn lowers the allocation ratio
   (capacity loss), heavy churn can push it back above the baseline
   because every torn-down victim is re-admitted and allocated again
   against a fixed arrival count; throughout, warm's per-cycle solver
   cost stays well below rebuild's — faults make the network *churn
   more*, which is exactly when rebuilding an almost-unchanged graph
   every cycle is most wasteful. *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Scheduler = Rsin_core.Scheduler
module Fault = Rsin_fault.Fault
module Engine = Rsin_engine.Engine
module Workload = Rsin_sim.Workload
module Prng = Rsin_util.Prng
module Table = Rsin_util.Table
module Bench_report = Rsin_obs.Bench_report

(* None = fault-free baseline. *)
let mtbfs = [ None; Some 200.; Some 80.; Some 40.; Some 20. ]

let run ?(quick = false) () =
  let slots = if quick then 120 else 300 in
  let config mode = Engine.Config.v ~mode ~transmission_time:2 ~max_defer:8 () in
  print_endline "E31: online engine under element faults (MTBF/MTTR churn)";
  Printf.printf
    "  (%d arrival slots, arrival 0.3, transmission 2, mttr = mtbf/4, seed 11)\n\n"
    slots;
  let report = Bench_report.create ~quick "engine_faults" in
  List.iter
    (fun (name, net) ->
      Printf.printf "-- %s --\n" name;
      let rows =
        List.map
          (fun mtbf_opt ->
            let base =
              Workload.synthesize ~deadline_slack:60 (Prng.create 11) net
                ~slots ~arrival_prob:0.3
            in
            let trace =
              match mtbf_opt with
              | None -> base
              | Some mtbf ->
                let sched =
                  Fault.inject (Prng.create 23) net ~horizon:slots ~mtbf
                    ~mttr:(mtbf /. 4.)
                in
                List.stable_sort
                  (fun a b ->
                    compare (Workload.event_time a) (Workload.event_time b))
                  (base @ Workload.fault_events sched)
            in
            let hook snapshot (info : Engine.cycle_info) =
              let reference =
                Scheduler.schedule snapshot
                  ~requests:(List.map Scheduler.request info.Engine.requests)
                  ~resources:(List.map Scheduler.resource info.Engine.free)
              in
              assert (reference.Scheduler.allocated = info.Engine.allocated)
            in
            (* One hooked run carries the differential invariant; the
               timed runs drop the hook (a from-scratch Scheduler per
               cycle would dominate the measurement). *)
            let warm =
              Engine.run ~config:(config Engine.Warm) ~cycle_hook:hook net
                trace
            in
            let case =
              Bench_report.case report
                (Printf.sprintf "%s/mtbf=%s" name
                   (match mtbf_opt with
                   | None -> "none"
                   | Some m -> Table.ffix 0 m))
            in
            let timed mode prefix =
              let result = ref None in
              let m =
                Bench_report.measure ~warmup:0 ~runs:2 (fun () ->
                    result := Some (Engine.run ~config:(config mode) net trace))
              in
              Bench_report.record case ~prefix m;
              Option.get !result
            in
            let warm_timed = timed Engine.Warm "warm" in
            let rebuild = timed Engine.Rebuild "rebuild" in
            assert (warm_timed.Engine.solver_work = warm.Engine.solver_work);
            assert (warm.Engine.faults = rebuild.Engine.faults);
            assert (warm.Engine.repairs = rebuild.Engine.repairs);
            Bench_report.record_count case ~name:"faults"
              (float_of_int warm.Engine.faults);
            Bench_report.record_count case ~name:"victims"
              (float_of_int warm.Engine.victims);
            Bench_report.record_count case ~name:"warm.solver_work"
              ~unit_:"arcs"
              (float_of_int warm.Engine.solver_work);
            Bench_report.record_count case ~name:"rebuild.solver_work"
              ~unit_:"arcs"
              (float_of_int rebuild.Engine.solver_work);
            Bench_report.record_yield case ~name:"warm.allocated"
              (float_of_int warm.Engine.allocated);
            let ratio (r : Engine.report) =
              float_of_int r.Engine.allocated
              /. float_of_int (max 1 r.Engine.arrivals)
            in
            let per_cycle (r : Engine.report) =
              float_of_int r.Engine.solver_work
              /. float_of_int (max 1 r.Engine.cycles)
            in
            [ (match mtbf_opt with
              | None -> "none"
              | Some m -> Table.ffix 0 m);
              string_of_int warm.Engine.faults;
              string_of_int warm.Engine.victims;
              Table.fpct (ratio warm);
              Table.fpct (ratio rebuild);
              Table.ffix 1 (per_cycle warm);
              Table.ffix 1 (per_cycle rebuild);
              Table.fpct (1. -. per_cycle warm /. per_cycle rebuild) ])
          mtbfs
      in
      Table.print
        ~header:
          [ "mtbf"; "faults"; "victims"; "alloc warm"; "alloc rebuild";
            "warm work/cyc"; "rebuild work/cyc"; "saved" ]
        rows;
      print_newline ())
    [ ("omega:16", Builders.omega 16);
      ("benes:16", Builders.benes 16);
      ("clos:3,2,4", Builders.clos ~m:3 ~n:2 ~r:4) ];
  Printf.printf "  wrote %s\n\n" (Bench_report.write report)
