module Prng = Rsin_util.Prng
module Stats = Rsin_util.Stats
module Network = Rsin_topology.Network
module Transform1 = Rsin_core.Transform1
module Heuristic = Rsin_core.Heuristic
module Token_sim = Rsin_distributed.Token_sim

type scheduler = Optimal | Distributed | First_fit | Random_fit | Address_map

let scheduler_name = function
  | Optimal -> "optimal (max-flow)"
  | Distributed -> "distributed (tokens)"
  | First_fit -> "first-fit heuristic"
  | Random_fit -> "random-fit heuristic"
  | Address_map -> "address mapping"

type config = {
  trials : int;
  req_density : float;
  res_density : float;
  pre_circuits : int;
}

let default_config =
  { trials = 1000; req_density = 0.5; res_density = 0.5; pre_circuits = 0 }

type estimate = {
  mean_blocking : float;
  ci95 : float;
  mean_allocated : float;
  mean_offered : float;
  utilization : float;
  trials_used : int;
}

let allocated_of ?obs ?(solver = Rsin_flow.Solver.get "dinic") scheduler rng
    net ~requests ~free =
  match scheduler with
  | Optimal ->
    (Transform1.solve_with ?obs solver (Transform1.build net ~requests ~free))
      .Transform1.allocated
  | Distributed -> (Token_sim.run ?obs net ~requests ~free).Token_sim.allocated
  | First_fit ->
    (Heuristic.schedule net ~requests ~free Heuristic.First_fit)
      .Heuristic.allocated
  | Random_fit ->
    (Heuristic.schedule net ~requests ~free (Heuristic.Random_fit rng))
      .Heuristic.allocated
  | Address_map ->
    (Heuristic.schedule net ~requests ~free (Heuristic.Address_map rng))
      .Heuristic.allocated

let estimate ?obs ?(config = default_config) ?solver ~scheduler rng make_net =
  let module Obs = Rsin_obs.Obs in
  let blocking = Stats.accum () in
  let alloc = Stats.accum () in
  let offered = Stats.accum () in
  let util = Stats.accum () in
  let used = ref 0 in
  for _ = 1 to config.trials do
    let net = make_net () in
    if config.pre_circuits > 0 then
      ignore (Workload.preoccupy rng net ~circuits:config.pre_circuits);
    let busy_p, busy_r = Workload.occupied_endpoints net in
    let requests, free =
      Workload.snapshot ~req_density:config.req_density
        ~res_density:config.res_density rng net
    in
    let requests = List.filter (fun p -> not (List.mem p busy_p)) requests in
    let free = List.filter (fun r -> not (List.mem r busy_r)) free in
    let bound = min (List.length requests) (List.length free) in
    if bound > 0 then begin
      incr used;
      let a = allocated_of ?obs ?solver scheduler rng net ~requests ~free in
      Stats.observe blocking (float_of_int (bound - a) /. float_of_int bound);
      Stats.observe alloc (float_of_int a);
      Stats.observe offered (float_of_int bound);
      Stats.observe util (float_of_int a /. float_of_int (List.length free))
    end
  done;
  Obs.count obs "blocking.trials" config.trials;
  Obs.count obs "blocking.trials_used" !used;
  { mean_blocking = Stats.mean blocking;
    ci95 = Stats.ci95 blocking;
    mean_allocated = Stats.mean alloc;
    mean_offered = Stats.mean offered;
    utilization = Stats.mean util;
    trials_used = !used }
