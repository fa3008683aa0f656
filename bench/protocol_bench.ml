(* E32: the distributed token protocol under mid-cycle faults.

   Every cycle draws a random request/free snapshot and a random
   mid-cycle fault schedule — element deaths (links, boxes, resource
   ports) at random status-bus clocks, mixed with transient stuck-at
   windows on the control bits E3/E4/E6 — and runs the self-recovering
   token protocol on three topology families. Two things are measured
   while a differential invariant is asserted:

   - recovery correctness: every cycle that completes commits an
     allocation equal to centralized Dinic max-flow on the *final*
     degraded subnetwork (the surviving capacity after every death the
     cycle absorbed) — recovery costs clock periods, never allocation;
   - recovery overhead: the clocks the faulted run spends beyond a
     fault-free run on that same degraded subnetwork, i.e. beyond what
     an oracle knowing the final topology would spend. The overhead
     grows roughly linearly in the fault count (each death wastes at
     most one aborted phase plus the re-run), and watchdog fires stay
     confined to the stuck-at windows.

   The sweep keeps stuck windows transient (every forced bit clears a
   few clocks later), so bounded retries always suffice and the
   completion rate stays 100%; permanent stuck-at give-up is pinned by
   the unit tests instead. *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Scheduler = Rsin_core.Scheduler
module Fault = Rsin_fault.Fault
module Token_sim = Rsin_distributed.Token_sim
module Bus = Rsin_distributed.Status_bus
module Workload = Rsin_sim.Workload
module Prng = Rsin_util.Prng
module Clock = Rsin_util.Clock
module Table = Rsin_util.Table
module Bench_report = Rsin_obs.Bench_report

let fault_counts = [ 0; 1; 2; 4; 8 ]

(* A death of a random element, or (one time in four) a transient
   stuck-at window on a control bit: the schedule gains the force at
   [clk] and the clear a few clocks later. *)
let random_faults g net clk =
  if Prng.int g 4 < 3 then
    let el =
      match Prng.int g 3 with
      | 0 -> Token_sim.Dead_link (Prng.int g (Network.n_links net))
      | 1 -> Token_sim.Dead_box (Prng.int g (Network.n_boxes net))
      | _ -> Token_sim.Dead_res (Prng.int g (Network.n_res net))
    in
    [ (clk, el) ]
  else
    let e =
      match Prng.int g 3 with
      | 0 -> Bus.E3_request_token_phase
      | 1 -> Bus.E4_resource_token_phase
      | _ -> Bus.E6_rs_received_token
    in
    let stuck = if Prng.int g 2 = 0 then Bus.Stuck_at_0 else Bus.Stuck_at_1 in
    [ (clk, Token_sim.Stuck_bit (e, stuck));
      (clk + 3 + Prng.int g 8, Token_sim.Clear_bit e) ]

(* Dinic max-flow on the subnetwork surviving the deaths the cycle
   actually absorbed — the allocation a completed recovery must equal. *)
let reference net ~requests ~free applied =
  let degraded = Network.copy net in
  List.iter
    (fun (_clk, f) ->
      match f with
      | Token_sim.Dead_link l -> Fault.apply degraded (Fault.Link_down l)
      | Token_sim.Dead_box b -> Fault.apply degraded (Fault.Box_down b)
      | Token_sim.Dead_res r -> Fault.apply degraded (Fault.Res_down r)
      | Token_sim.Stuck_bit _ | Token_sim.Clear_bit _ -> ())
    applied;
  let opt =
    Scheduler.schedule degraded
      ~requests:(List.map Scheduler.request requests)
      ~resources:(List.map Scheduler.resource free)
  in
  (degraded, opt.Scheduler.allocated)

let run ?(quick = false) () =
  let cycles = if quick then 40 else 120 in
  print_endline "E32: distributed token protocol under mid-cycle faults";
  Printf.printf
    "  (%d cycles per rate, random snapshots, 3/4 element deaths + 1/4 \
     transient stuck-at windows, seed 7)\n\n"
    cycles;
  let report = Bench_report.create ~quick "protocol" in
  List.iter
    (fun (name, net) ->
      Printf.printf "-- %s --\n" name;
      let rows =
        List.map
          (fun n_faults ->
            let rng = Prng.create 7 in
            let applied = ref 0 and aborts = ref 0 and watchdogs = ref 0 in
            let restarts = ref 0 and retries = ref 0 in
            let overhead = ref 0 and base_clocks = ref 0 in
            let incomplete = ref 0 and allocated = ref 0 and optimum = ref 0 in
            let wall = Array.make cycles 0. in
            let total_clocks = ref 0 in
            for cyc = 0 to cycles - 1 do
              let g = Prng.split rng in
              let requests, free = Workload.snapshot g net in
              let faults =
                List.concat
                  (List.init n_faults (fun _ ->
                       random_faults g net (Prng.int g 60)))
              in
              let rep, us =
                Clock.time_us (fun () -> Token_sim.run net ~requests ~free ~faults)
              in
              wall.(cyc) <- us;
              total_clocks := !total_clocks + rep.Token_sim.total_clocks;
              let r = rep.Token_sim.recovery in
              applied := !applied + r.Token_sim.faults_applied;
              aborts := !aborts + r.Token_sim.iteration_aborts;
              watchdogs := !watchdogs + r.Token_sim.watchdog_fires;
              restarts := !restarts + r.Token_sim.cycle_restarts;
              retries := !retries + r.Token_sim.retries;
              if not r.Token_sim.completed then incr incomplete
              else begin
                let degraded, opt =
                  reference net ~requests ~free rep.Token_sim.applied_faults
                in
                (* The differential invariant of DESIGN 9: a completed
                   cycle is exactly as good as the centralized scheduler
                   on the surviving subnetwork. *)
                assert (rep.Token_sim.allocated = opt);
                allocated := !allocated + rep.Token_sim.allocated;
                optimum := !optimum + opt;
                let oracle = Token_sim.run degraded ~requests ~free in
                overhead :=
                  !overhead
                  + (rep.Token_sim.total_clocks - oracle.Token_sim.total_clocks);
                base_clocks := !base_clocks + oracle.Token_sim.total_clocks
              end
            done;
            let case =
              Bench_report.case report
                (Printf.sprintf "%s/faults=%d" name n_faults)
            in
            Bench_report.record_samples case ~name:"cycle.wall_us"
              ~kind:Bench_report.Time ~unit_:"us" wall;
            Bench_report.record_count case ~name:"total_clocks" ~unit_:"clk"
              (float_of_int !total_clocks);
            Bench_report.record_count case ~name:"faults_applied"
              (float_of_int !applied);
            Bench_report.record_count case ~name:"aborts"
              (float_of_int !aborts);
            Bench_report.record_count case ~name:"watchdog_fires"
              (float_of_int !watchdogs);
            Bench_report.record_count case ~name:"recovery_overhead"
              ~unit_:"clk" (float_of_int !overhead);
            Bench_report.record_yield case ~name:"completed"
              (float_of_int (cycles - !incomplete));
            let per_cycle v = float_of_int v /. float_of_int cycles in
            [ string_of_int n_faults;
              Table.ffix 1 (per_cycle !applied);
              Table.ffix 2 (per_cycle !aborts);
              Table.ffix 2 (per_cycle !watchdogs);
              Table.ffix 2 (per_cycle !restarts);
              Table.ffix 2 (per_cycle !retries);
              Table.ffix 1 (per_cycle !overhead);
              Table.fpct
                (float_of_int !overhead /. float_of_int (max 1 !base_clocks));
              Printf.sprintf "%d/%d" (cycles - !incomplete) cycles ])
          fault_counts
      in
      Table.print
        ~header:
          [ "faults"; "applied"; "aborts"; "watchdog"; "restarts"; "retries";
            "overhead clk"; "overhead"; "completed" ]
        rows;
      print_newline ())
    [ ("omega:16", Builders.omega 16);
      ("benes:16", Builders.benes 16);
      ("clos:3,2,4", Builders.clos ~m:3 ~n:2 ~r:4) ];
  Printf.printf "  wrote %s\n\n" (Bench_report.write report)
