(* Experiment E8: the paper's Table II, regenerated as a measured
   comparison: every scheduling discipline on a common instance set, with
   its equivalent flow problem, algorithms and observed costs. Each
   discipline's per-instance wall samples and mean allocation go into
   BENCH_table2.json — one case per algorithm row of the table. *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module T1 = Rsin_core.Transform1
module T2 = Rsin_core.Transform2
module Hetero = Rsin_core.Hetero
module Token_sim = Rsin_distributed.Token_sim
module Workload = Rsin_sim.Workload
module Prng = Rsin_util.Prng
module Clock = Rsin_util.Clock
module Stats = Rsin_util.Stats
module Table = Rsin_util.Table
module Bench_report = Rsin_obs.Bench_report

let seed = 515

(* A Welford accumulator that also keeps the raw samples, so the table
   prints means while the report gets the full distribution. *)
type series = { acc : Stats.accum; mutable samples : float list }

let series () = { acc = Stats.accum (); samples = [] }

let observe s x =
  Stats.observe s.acc x;
  s.samples <- x :: s.samples

let to_array s = Array.of_list (List.rev s.samples)

type instance = {
  net : Network.t;
  requests : int list;
  free : int list;
}

let make_instances n_instances =
  let rng = Prng.create seed in
  let rec go acc k =
    if k = 0 then acc
    else begin
      let net = Builders.omega 16 in
      ignore (Workload.preoccupy rng net ~circuits:(Prng.int rng 3));
      let busy_p, busy_r = Workload.occupied_endpoints net in
      let requests, free =
        Workload.snapshot ~req_density:0.6 ~res_density:0.6 rng net
      in
      let requests = List.filter (fun p -> not (List.mem p busy_p)) requests in
      let free = List.filter (fun r -> not (List.mem r busy_r)) free in
      if requests = [] || free = [] then go acc k
      else go ({ net; requests; free } :: acc) (k - 1)
    end
  in
  go [] n_instances

let table2 ?(quick = false) ?(instances = 100) () =
  print_endline "== E8 (Table II): scheduling disciplines side by side ==";
  let insts = make_instances instances in
  let rng = Prng.create (seed + 1) in
  (* attach priorities and types deterministically per instance *)
  let prioritized =
    List.map
      (fun i ->
        ( i,
          List.map (fun p -> (p, 1 + Prng.int rng 10)) i.requests,
          List.map (fun r -> (r, 1 + Prng.int rng 10)) i.free ))
      insts
  in
  let hetero_specs =
    List.map
      (fun i -> (i, Workload.hetero_spec rng ~types:2 ~requests:i.requests ~free:i.free))
      insts
  in
  let alloc = Stats.accum () and t_ff = series () and t_dinic = series ()
  and t_token = series () in
  List.iter
    (fun i ->
      let ek = Rsin_flow.Solver.get "edmonds-karp"
      and dinic = Rsin_flow.Solver.get "dinic" in
      let o, us =
        Clock.time_us (fun () ->
            T1.solve_with ek
              (T1.build i.net ~requests:i.requests ~free:i.free))
      in
      observe t_ff us;
      Stats.observe alloc (float_of_int o.T1.allocated);
      let _, us = Clock.time_us (fun () ->
          T1.solve_with dinic
            (T1.build i.net ~requests:i.requests ~free:i.free)) in
      observe t_dinic us;
      let _, us = Clock.time_us (fun () -> Token_sim.run i.net ~requests:i.requests
                               ~free:i.free) in
      observe t_token us)
    insts;
  let alloc2 = Stats.accum () and cost2 = Stats.accum () and t_ssp = series ()
  and t_ook = series () in
  List.iter
    (fun (i, reqs, frees) ->
      let o, us =
        Clock.time_us (fun () -> T2.schedule ~solver:T2.Ssp i.net ~requests:reqs ~free:frees)
      in
      observe t_ssp us;
      Stats.observe alloc2 (float_of_int o.T2.allocated);
      Stats.observe cost2 (float_of_int o.T2.allocation_cost);
      let o', us =
        Clock.time_us (fun () ->
            T2.schedule ~solver:T2.Out_of_kilter i.net ~requests:reqs ~free:frees)
      in
      observe t_ook us;
      assert (o'.T2.allocated = o.T2.allocated))
    prioritized;
  let alloc3 = Stats.accum () and t_lp = series () and t_greedy = series ()
  and greedy_alloc = Stats.accum () and integral = ref 0 in
  List.iter
    (fun (i, spec) ->
      let o, us = Clock.time_us (fun () -> Hetero.schedule_lp i.net spec) in
      observe t_lp us;
      Stats.observe alloc3 (float_of_int o.Hetero.allocated);
      if o.Hetero.integral then incr integral;
      let g, us = Clock.time_us (fun () -> Hetero.schedule_greedy i.net spec) in
      observe t_greedy us;
      Stats.observe greedy_alloc (float_of_int g.Hetero.allocated))
    hetero_specs;
  Table.print
    ~header:
      [ "discipline"; "equivalent flow problem"; "algorithm"; "mean allocated";
        "mean time (us)" ]
    [
      [ "homogeneous, no priority"; "maximum flow"; "Ford-Fulkerson (EK)";
        Table.ffix 2 (Stats.mean alloc); Table.ffix 0 (Stats.mean t_ff.acc) ];
      [ "homogeneous, no priority"; "maximum flow"; "Dinic";
        Table.ffix 2 (Stats.mean alloc); Table.ffix 0 (Stats.mean t_dinic.acc) ];
      [ "homogeneous, no priority"; "maximum flow"; "distributed tokens";
        Table.ffix 2 (Stats.mean alloc); Table.ffix 0 (Stats.mean t_token.acc) ];
      [ "priority & preference"; "min-cost flow"; "successive shortest paths";
        Table.ffix 2 (Stats.mean alloc2); Table.ffix 0 (Stats.mean t_ssp.acc) ];
      [ "priority & preference"; "min-cost flow"; "out-of-kilter";
        Table.ffix 2 (Stats.mean alloc2); Table.ffix 0 (Stats.mean t_ook.acc) ];
      [ "heterogeneous (2 types)"; "multicommodity max flow"; "simplex LP";
        Table.ffix 2 (Stats.mean alloc3); Table.ffix 0 (Stats.mean t_lp.acc) ];
      [ "heterogeneous (2 types)"; "multicommodity max flow"; "greedy sequential";
        Table.ffix 2 (Stats.mean greedy_alloc); Table.ffix 0 (Stats.mean t_greedy.acc) ];
    ];
  let report = Bench_report.create ~quick "table2" in
  List.iter
    (fun (case_name, s, mean_alloc) ->
      let case = Bench_report.case report case_name in
      Bench_report.record_samples case ~name:"wall_us"
        ~kind:Bench_report.Time ~unit_:"us" (to_array s);
      Bench_report.record_yield case ~name:"mean_allocated" mean_alloc)
    [ ("edmonds_karp", t_ff, Stats.mean alloc);
      ("dinic", t_dinic, Stats.mean alloc);
      ("token", t_token, Stats.mean alloc);
      ("ssp", t_ssp, Stats.mean alloc2);
      ("out_of_kilter", t_ook, Stats.mean alloc2);
      ("lp", t_lp, Stats.mean alloc3);
      ("greedy", t_greedy, Stats.mean greedy_alloc) ];
  Printf.printf "  wrote %s\n" (Bench_report.write report);
  Printf.printf
    "LP optima integral on %d/%d instances (paper: restricted topologies give\n\
     integral multicommodity optima); mean prioritized allocation cost %.1f\n\n"
    !integral (List.length hetero_specs) (Stats.mean cost2)
