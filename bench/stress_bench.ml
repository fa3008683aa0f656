(* Experiment E25: solver scaling with network size. The paper quotes
   O(|V|^(2/3) |E|) for Dinic on the unit-capacity transformed networks;
   this measures wall-clock growth up to 256-port Omegas and checks that
   allocation quality is size-independent. Per-trial wall samples (one
   per random snapshot) go into BENCH_stress.json so the perf gate can
   watch the scaling curve, not just its mean. *)

module Builders = Rsin_topology.Builders
module Network = Rsin_topology.Network
module T1 = Rsin_core.Transform1
module Token_sim = Rsin_distributed.Token_sim
module Workload = Rsin_sim.Workload
module Prng = Rsin_util.Prng
module Clock = Rsin_util.Clock
module Stats = Rsin_util.Stats
module Table = Rsin_util.Table
module Bench_report = Rsin_obs.Bench_report

let seed = 31337

let stress ?(quick = false) ?(trials = 40) () =
  print_endline "== E25: solver scaling up to 256-port networks ==";
  let report = Bench_report.create ~quick "stress" in
  Table.print
    ~header:
      [ "network"; "links"; "build+Dinic (us)"; "token sim (us)";
        "mean allocated"; "blocking" ]
    (List.map
       (fun n ->
         let rng = Prng.create seed in
         let t_flow = ref [] and t_tok = ref [] in
         let alloc = Stats.accum () and blocking = Stats.accum () in
         let net = Builders.omega n in
         for _ = 1 to trials do
           let requests, free =
             Workload.snapshot ~req_density:0.7 ~res_density:0.7 rng net
           in
           if requests <> [] && free <> [] then begin
             let o, us =
               Clock.time_us (fun () -> T1.schedule net ~requests ~free)
             in
             t_flow := us :: !t_flow;
             Stats.observe alloc (float_of_int o.T1.allocated);
             let bound = min (List.length requests) (List.length free) in
             Stats.observe blocking
               (float_of_int (bound - o.T1.allocated) /. float_of_int bound);
             if n <= 64 then begin
               let _, us =
                 Clock.time_us (fun () -> Token_sim.run net ~requests ~free)
               in
               t_tok := us :: !t_tok
             end
           end
         done;
         let flow_us = Array.of_list (List.rev !t_flow) in
         let tok_us = Array.of_list (List.rev !t_tok) in
         let mean xs =
           Array.fold_left ( +. ) 0. xs /. float_of_int (max 1 (Array.length xs))
         in
         let case = Bench_report.case report (Printf.sprintf "omega=%d" n) in
         Bench_report.record_samples case ~name:"flow.wall_us"
           ~kind:Bench_report.Time ~unit_:"us" flow_us;
         if Array.length tok_us > 0 then
           Bench_report.record_samples case ~name:"token.wall_us"
             ~kind:Bench_report.Time ~unit_:"us" tok_us;
         Bench_report.record_count case ~name:"links"
           (float_of_int (Network.n_links net));
         Bench_report.record_yield case ~name:"mean_allocated"
           (Stats.mean alloc);
         [ Printf.sprintf "omega %d" n;
           string_of_int (Network.n_links net);
           Table.ffix 0 (mean flow_us);
           (if n <= 64 then Table.ffix 0 (mean tok_us) else "-");
           Table.ffix 1 (Stats.mean alloc);
           Table.fpct (Stats.mean blocking) ])
       [ 16; 32; 64; 128; 256 ]);
  print_endline
    "(near-linear wall-clock growth in the link count; blocking vanishes as\n\
    \ the network grows at fixed density, consistent with E12)";
  Printf.printf "  wrote %s\n" (Bench_report.write report);
  print_newline ()
