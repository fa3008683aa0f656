module Prng = Rsin_util.Prng
module Stats = Rsin_util.Stats
module Network = Rsin_topology.Network
module Transform1 = Rsin_core.Transform1
module Heuristic = Rsin_core.Heuristic

type params = {
  arrival_prob : float;
  transmission_time : int;
  mean_service : float;
  slots : int;
  warmup : int;
}

type scheduler = Optimal | First_fit | Distributed

type metrics = {
  throughput : float;
  offered_load : float;
  resource_utilization : float;
  serving_utilization : float;
  mean_queue : float;
  mean_wait : float;
  completed : int;
  blocked_cycle_fraction : float;
  cycles_run : int;
  futile_cycle_fraction : float;
  scheduling_clocks : int;
}

type proc_state = {
  mutable queue : int list; (* arrival slots of queued tasks, oldest first *)
  mutable transmitting : (int * int) option; (* circuit id, release slot *)
}

type res_state = {
  mutable busy_until : int; (* -1 = free *)
  mutable serving_from : int; (* first slot past the transmission *)
}

module Obs = Rsin_obs.Obs
module Tr = Rsin_obs.Trace

let run ?obs ?(scheduler = Optimal) ?(cycle_threshold = 1)
    ?(solver = Rsin_flow.Solver.get "dinic") rng net params =
  if cycle_threshold < 1 then invalid_arg "Dynamic.run: cycle_threshold";
  if params.arrival_prob < 0. || params.arrival_prob > 1. then
    invalid_arg "Dynamic.run: arrival_prob";
  if params.transmission_time < 1 then invalid_arg "Dynamic.run: transmission_time";
  if params.mean_service < 1. then invalid_arg "Dynamic.run: mean_service";
  let net = Network.copy net in
  Network.clear_circuits net;
  let np = Network.n_procs net and nr = Network.n_res net in
  let procs = Array.init np (fun _ -> { queue = []; transmitting = None }) in
  let ress = Array.init nr (fun _ -> { busy_until = -1; serving_from = 0 }) in
  (* Geometric service with the requested mean: success prob 1/mean,
     support >= 1. *)
  let service_time () = 1 + Prng.geometric rng (1. /. params.mean_service) in
  let arrivals = ref 0 and completed = ref 0 in
  let waits = Stats.accum () and queue_depth = Stats.accum () in
  let busy_frac = Stats.accum () and serving_frac = Stats.accum () in
  let cycles = ref 0 and blocked_cycles = ref 0 and futile_cycles = ref 0 in
  let sched_clocks = ref 0 in
  let horizon = params.warmup + params.slots in
  let measuring slot = slot >= params.warmup in
  let tracing = Obs.tracing obs in
  for slot = 0 to horizon - 1 do
    let slot_arrivals = ref 0 and slot_allocated = ref 0 in
    (* 1. Task arrivals. *)
    for p = 0 to np - 1 do
      if Prng.bernoulli rng params.arrival_prob then begin
        procs.(p).queue <- procs.(p).queue @ [ slot ];
        incr slot_arrivals;
        if measuring slot then incr arrivals
      end
    done;
    (* 2. Transmissions that finish release their circuits. *)
    for p = 0 to np - 1 do
      match procs.(p).transmitting with
      | Some (circuit, release) when release <= slot ->
        Network.release net circuit;
        procs.(p).transmitting <- None
      | Some _ | None -> ()
    done;
    (* 3. Resources that finish service become free. *)
    for r = 0 to nr - 1 do
      if ress.(r).busy_until >= 0 && ress.(r).busy_until <= slot then begin
        ress.(r).busy_until <- -1;
        if measuring slot then incr completed
      end
    done;
    (* 4. Scheduling cycle over pending requests and free resources. *)
    let requests =
      List.filter
        (fun p -> procs.(p).queue <> [] && procs.(p).transmitting = None)
        (List.init np (fun i -> i))
    in
    let free =
      List.filter (fun r -> ress.(r).busy_until < 0) (List.init nr (fun i -> i))
    in
    if
      List.length requests >= cycle_threshold
      && List.length free >= min cycle_threshold (List.length requests)
      && requests <> [] && free <> []
    then begin
      incr cycles;
      let mapping, circuits =
        match scheduler with
        | Optimal ->
          let tr = Transform1.build net ~requests ~free in
          let o = Transform1.solve_with ?obs solver tr in
          (o.Transform1.mapping, o.Transform1.circuits)
        | First_fit ->
          let o = Heuristic.schedule net ~requests ~free Heuristic.First_fit in
          (o.Heuristic.mapping, o.Heuristic.circuits)
        | Distributed ->
          let module Token_sim = Rsin_distributed.Token_sim in
          let rep = Token_sim.run ?obs net ~requests ~free in
          sched_clocks := !sched_clocks + rep.Token_sim.total_clocks;
          (rep.Token_sim.mapping, rep.Token_sim.circuits)
      in
      slot_allocated := List.length mapping;
      if List.length mapping < min (List.length requests) (List.length free)
      then incr blocked_cycles;
      if mapping = [] then incr futile_cycles;
      List.iter2
        (fun (p, r) (_p, links) ->
          let id = Network.establish net links in
          (match procs.(p).queue with
          | arrival :: rest ->
            procs.(p).queue <- rest;
            if measuring slot then
              Stats.observe waits (float_of_int (slot - arrival))
          | [] -> assert false);
          procs.(p).transmitting <- Some (id, slot + params.transmission_time);
          ress.(r).serving_from <- slot + params.transmission_time;
          ress.(r).busy_until <- slot + params.transmission_time + service_time ())
        mapping circuits
    end;
    (* 5. Per-slot measurements. *)
    if measuring slot then begin
      let busy = Array.fold_left (fun acc r -> if r.busy_until >= 0 then acc + 1 else acc) 0 ress in
      Stats.observe busy_frac (float_of_int busy /. float_of_int nr);
      let serving =
        Array.fold_left
          (fun acc r ->
            if r.busy_until >= 0 && slot >= r.serving_from then acc + 1 else acc)
          0 ress
      in
      Stats.observe serving_frac (float_of_int serving /. float_of_int nr);
      let queued = Array.fold_left (fun acc p -> acc + List.length p.queue) 0 procs in
      Stats.observe queue_depth (float_of_int queued /. float_of_int np)
    end;
    (* tag the slot on the timeline (domain clock = slot index) *)
    if tracing then begin
      let queued = Array.fold_left (fun acc p -> acc + List.length p.queue) 0 procs in
      Obs.instant obs "sim.slot" ~ts:slot
        ~args:
          [ ("arrivals", Tr.Int !slot_arrivals);
            ("allocated", Tr.Int !slot_allocated);
            ("queued", Tr.Int queued);
            ("warmup", Tr.Bool (not (measuring slot))) ]
    end
  done;
  Obs.count obs "dynamic.slots" params.slots;
  Obs.count obs "dynamic.arrivals" !arrivals;
  Obs.count obs "dynamic.completed" !completed;
  Obs.count obs "dynamic.cycles" !cycles;
  Obs.count obs "dynamic.blocked_cycles" !blocked_cycles;
  Obs.count obs "dynamic.futile_cycles" !futile_cycles;
  Obs.count obs "dynamic.scheduling_clocks" !sched_clocks;
  let slots = float_of_int params.slots in
  { throughput = float_of_int !completed /. slots;
    offered_load = float_of_int !arrivals /. slots;
    resource_utilization = Stats.mean busy_frac;
    serving_utilization = Stats.mean serving_frac;
    mean_queue = Stats.mean queue_depth;
    mean_wait = (if Stats.count waits = 0 then nan else Stats.mean waits);
    completed = !completed;
    blocked_cycle_fraction =
      (if !cycles = 0 then 0.
       else float_of_int !blocked_cycles /. float_of_int !cycles);
    cycles_run = !cycles;
    futile_cycle_fraction =
      (if !cycles = 0 then 0.
       else float_of_int !futile_cycles /. float_of_int !cycles);
    scheduling_clocks = !sched_clocks }
