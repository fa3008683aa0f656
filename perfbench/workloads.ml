(* The benchmark's workloads: a topology, a synthetic traffic family and
   an engine configuration each, with the same meaning as the matching
   [rsin serve --synthetic] flags. The trace depends only on the seed
   the harness is given; the program under test sees only its JSONL
   bytes.

   Recorded seed: 1, the default of --seed. Held-back seed: 7919, never
   used while tuning the benchmark; kept for checking claims. *)

module Builders = Rsin_topology.Builders
module Workload = Rsin_sim.Workload
module Engine = Rsin_engine.Engine
module Policy = Rsin_guard.Policy
module Fault = Rsin_fault.Fault
module Prng = Rsin_util.Prng

let recorded_seed = 1

type t = {
  name : string;
  planes : int;          (* multi:PLANES:omega:PORTS *)
  ports : int;
  slots : int;           (* arrival slots of the synthetic trace *)
  arrival : float;       (* per-processor arrival probability per slot *)
  service : float;       (* mean service time, slots *)
  priority_levels : int;
  deadline_slack : int option;
  cancel : float;
  checkpoint_every : int option;
      (* snapshot the serving state every N slots from the event hook,
         as [rsin serve --checkpoint-every] does, kept in memory *)
  config : seed:int -> Engine.Config.t;
}

let spec w = Printf.sprintf "multi:%d:omega:%d" w.planes w.ports
let network w = Builders.multiplane ~planes:w.planes (Builders.omega w.ports)

let steady =
  { name = "steady"; planes = 4; ports = 256; slots = 1100; arrival = 0.12;
    service = 4.0; priority_levels = 0; deadline_slack = None; cancel = 0.;
    checkpoint_every = None;
    config = (fun ~seed:_ -> Engine.Config.default) }

let sparse =
  { steady with name = "sparse"; planes = 16; ports = 16; slots = 5_000;
    arrival = 0.04 }

(* rsin serve multi:4:omega:32 --arrival 0.2 --discipline priority
   --priority-levels 4 --deadline-slack 24 --cancel 0.05 --transmission 2
   --guard --queue-bound 4 --shed-policy deadline-aware --flap-k 2
   --faults --mtbf 1000 --mttr 20 --checkpoint-every 50 *)
let overload =
  { name = "overload"; planes = 4; ports = 32; slots = 1200; arrival = 0.2;
    service = 4.0; priority_levels = 4; deadline_slack = Some 24;
    cancel = 0.05; checkpoint_every = Some 50;
    config =
      (fun ~seed ->
        Engine.Config.v ~discipline:Engine.Priority ~transmission_time:2
          ~faults:(Some { Engine.Config.mtbf = 1000.; mttr = 20.;
                          granularity = `Slot })
          ~guard:(Some (Policy.v ~queue_bound:4
                          ~shed_policy:Policy.Deadline_aware ~seed ~flap_k:2 ()))
          ()) }

let all = [ steady; sparse; overload ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The trace [rsin serve --synthetic] would serve for the same flags and
   seed: the synthetic arrivals, then the config's fault plan woven in
   from a sub-stream of the same seed. *)
let trace w ~seed net =
  let trace =
    Workload.synthesize ~mean_service:w.service ?deadline_slack:w.deadline_slack
      ~cancel_prob:w.cancel ~priority_levels:w.priority_levels
      (Prng.create seed) net ~slots:w.slots ~arrival_prob:w.arrival
  in
  match (w.config ~seed).Engine.Config.faults with
  | None -> trace
  | Some { Engine.Config.mtbf; mttr; _ } ->
    let horizon =
      List.fold_left (fun acc e -> max acc (Workload.event_time e)) 0 trace
    in
    let frng = Prng.split (Prng.create seed) in
    Workload.sort_trace
      (trace @ Workload.fault_events (Fault.inject frng net ~horizon ~mtbf ~mttr))
