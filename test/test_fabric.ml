(* Packet fabric tests: routing tables, conservation, determinism,
   backpressure, fault semantics, and the packet-vs-circuit differential
   of DESIGN §11 — with unbounded buffers and single-flit tasks the
   fabric accepts at least as many flits per cycle as circuit switching
   allocates on the same workload. *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Fault = Rsin_fault.Fault
module Netgraph = Rsin_core.Netgraph
module Solver = Rsin_flow.Solver
module Prng = Rsin_util.Prng
module Arbiter = Rsin_packet.Arbiter
module Routing = Rsin_packet.Routing
module Fabric = Rsin_packet.Fabric
module Sweep = Rsin_packet.Sweep
module Replay = Rsin_packet.Replay

let check = Alcotest.check

let qtest name ?(count = 40) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let nets =
  [
    ("omega8", fun () -> Builders.omega 8);
    ("benes8", fun () -> Builders.benes 8);
    ("clos", fun () -> Builders.clos ~m:3 ~n:2 ~r:4);
    ("gamma8", fun () -> Builders.gamma 8);
    ("adm8", fun () -> Builders.adm 8);
    ("extra8", fun () -> Builders.extra_stage_omega 8 ~extra:1);
  ]

let net_arb =
  QCheck.make
    ~print:(fun (name, _) -> name)
    QCheck.Gen.(map (List.nth nets) (int_range 0 (List.length nets - 1)))

(* On a healthy network every processor reaches every resource, and every
   routing candidate port leads somewhere that still reaches the
   destination (checked one hop down). *)
let prop_routing_total (_, mk) =
  let net = mk () in
  let r = Routing.build net in
  let np = Network.n_procs net and nr = Network.n_res net in
  let ok = ref true in
  for p = 0 to np - 1 do
    for d = 0 to nr - 1 do
      if not (Routing.proc_reaches r ~proc:p ~dest:d) then ok := false
    done
  done;
  for b = 0 to Network.n_boxes net - 1 do
    for d = 0 to nr - 1 do
      Array.iter
        (fun port ->
          let l = (Network.box_out_links net b).(port) in
          match Network.link_dst net l with
          | Network.Res d' -> if d' <> d then ok := false
          | Network.Box_in (b', _) ->
            if Array.length (Routing.ports r ~box:b' ~dest:d) = 0 then
              ok := false
          | _ -> ok := false)
        (Routing.ports r ~box:b ~dest:d)
    done
  done;
  !ok

(* Drive a random workload; flits are conserved at every cycle and the
   run is deterministic. *)
let prop_conservation ((_, mk), seed) =
  let net = mk () in
  let rng = Prng.create seed in
  let np = Network.n_procs net and nr = Network.n_res net in
  let fabric = Fabric.create ~vq_depth:2 ~arbiter:(module Arbiter.Islip) net in
  let ok = ref true in
  let next = ref 0 in
  for _ = 1 to 40 do
    for p = 0 to np - 1 do
      if Prng.bernoulli rng 0.4 then begin
        Fabric.offer fabric ~proc:p ~task:!next ~dest:(Prng.int rng nr)
          ~flits:(1 + Prng.int rng 3);
        incr next
      end
    done;
    ignore (Fabric.step fabric);
    let s = Fabric.stats fabric in
    (* every offered flit is delivered, dropped, or still in flight *)
    if
      s.Fabric.offered_flits
      <> s.Fabric.delivered_flits + s.Fabric.dropped_flits
         + Fabric.in_flight fabric
    then ok := false;
    if Fabric.in_flight fabric <> s.Fabric.buffered_flits + s.Fabric.entry_flits
    then ok := false
  done;
  (* drain: unbounded entry + finite traffic must fully deliver *)
  let guard = ref 0 in
  while Fabric.in_flight fabric > 0 && !guard < 10_000 do
    ignore (Fabric.step fabric);
    incr guard
  done;
  let s = Fabric.stats fabric in
  !ok
  && Fabric.in_flight fabric = 0
  && s.Fabric.offered_flits = s.Fabric.delivered_flits + s.Fabric.dropped_flits
  && s.Fabric.dropped_flits = 0

let prop_deterministic ((_, mk), seed) =
  let run () =
    let net = mk () in
    let rng = Prng.create seed in
    let np = Network.n_procs net and nr = Network.n_res net in
    let fabric = Fabric.create ~vq_depth:3 ~arbiter:(module Arbiter.Naive_rr) net in
    let log = Buffer.create 256 in
    let next = ref 0 in
    for _ = 1 to 30 do
      for p = 0 to np - 1 do
        if Prng.bernoulli rng 0.5 then begin
          Fabric.offer fabric ~proc:p ~task:!next ~dest:(Prng.int rng nr) ~flits:2;
          incr next
        end
      done;
      List.iter
        (function
          | Fabric.Delivered { task; dest } ->
            Buffer.add_string log (Printf.sprintf "D%d:%d;" task dest)
          | Fabric.Dropped { task; dest } ->
            Buffer.add_string log (Printf.sprintf "X%d:%d;" task dest))
        (Fabric.step fabric)
    done;
    Buffer.contents log
  in
  run () = run ()

(* The differential: single-flit tasks, unbounded buffers. Whatever
   circuit switching can allocate in one slot (a max flow), the packet
   fabric accepts at least that many flits in the next cycle, because
   packet injection only needs first-hop space while a circuit needs a
   whole vertex-disjoint path. *)
let prop_accepts_at_least_circuit ((_, mk), seed) =
  let net = mk () in
  let rng = Prng.create seed in
  let np = Network.n_procs net and nr = Network.n_res net in
  let requesting =
    List.filter (fun _ -> Prng.bernoulli rng 0.7) (List.init np Fun.id)
  in
  QCheck.assume (requesting <> []);
  let g =
    Netgraph.compile net
      ~requests:(List.map (fun p -> (p, 0)) requesting)
      ~free:(List.init nr (fun r -> (r, 0)))
  in
  let (module S) = Solver.get "dinic" in
  let flow, _ =
    S.max_flow (Netgraph.graph g) ~source:(Netgraph.source g)
      ~sink:(Netgraph.sink g)
  in
  let { Netgraph.mapping; _ } = Netgraph.extract g in
  (* Same workload on the fabric: every requester offers one single-flit
     task, allocated requesters to the very resource Dinic picked. *)
  let fabric = Fabric.create ~arbiter:(module Arbiter.Islip) net in
  List.iter
    (fun p ->
      let dest =
        match List.assoc_opt p mapping with
        | Some r -> r
        | None -> Prng.int rng nr
      in
      Fabric.offer fabric ~proc:p ~task:p ~dest ~flits:1)
    requesting;
  ignore (Fabric.step fabric);
  let s = Fabric.stats fabric in
  let per_cycle_ok =
    (* first cycle: the fabric accepts every requester's flit, which is
       >= the max-flow value because each circuit allocation is one
       requester with a full path *)
    s.Fabric.injected_flits >= flow
    && s.Fabric.injected_flits = List.length requesting
  in
  let guard = ref 0 in
  while Fabric.in_flight fabric > 0 && !guard < 1000 do
    ignore (Fabric.step fabric);
    incr guard
  done;
  let s = Fabric.stats fabric in
  per_cycle_ok
  && s.Fabric.delivered_tasks = List.length requesting
  && s.Fabric.dropped_tasks = 0

let test_backpressure_depth1 () =
  (* vq_depth 1 on omega-8: heavy same-destination burst must still
     deliver everything, just slowly (lossless backpressure). *)
  let net = Builders.omega 8 in
  let fabric = Fabric.create ~vq_depth:1 ~arbiter:(module Arbiter.Islip) net in
  for p = 0 to 7 do
    Fabric.offer fabric ~proc:p ~task:p ~dest:0 ~flits:3
  done;
  let delivered = ref 0 in
  let guard = ref 0 in
  while Fabric.in_flight fabric > 0 && !guard < 1000 do
    List.iter
      (function Fabric.Delivered _ -> incr delivered | Fabric.Dropped _ -> ())
      (Fabric.step fabric);
    incr guard
  done;
  check Alcotest.int "all tasks delivered" 8 !delivered;
  let s = Fabric.stats fabric in
  check Alcotest.int "no drops" 0 s.Fabric.dropped_flits;
  check Alcotest.int "flits" 24 s.Fabric.delivered_flits;
  (* a single resource port takes one flit per cycle: 24 flits need at
     least 24 cycles — the serialization circuit switching avoids *)
  check Alcotest.bool "serialized" true (Fabric.now fabric >= 24)

let test_unreachable_drops () =
  let net = Builders.omega 8 in
  Network.set_res_up net 3 false;
  let fabric = Fabric.create ~arbiter:(module Arbiter.Naive_rr) net in
  Fabric.offer fabric ~proc:0 ~task:42 ~dest:3 ~flits:2;
  let events = Fabric.step fabric in
  check Alcotest.bool "dropped at injection" true
    (List.exists (function Fabric.Dropped { task = 42; dest = 3 } -> true | _ -> false)
       events);
  (* flits of a dropped task are discarded lazily, at the next head scan *)
  ignore (Fabric.step fabric);
  let s = Fabric.stats fabric in
  check Alcotest.int "task counted" 1 s.Fabric.dropped_tasks;
  check Alcotest.int "flits counted" 2 s.Fabric.dropped_flits

let test_fault_drops_on_single_path () =
  (* Omega is delta: one path per (proc, dest). Kill a link carrying
     queued flits; refresh_health must drop exactly the stranded tasks
     and leave the rest deliverable. *)
  let net = Builders.omega 8 in
  let fabric = Fabric.create ~arbiter:(module Arbiter.Islip) net in
  for p = 0 to 7 do
    Fabric.offer fabric ~proc:p ~task:p ~dest:p ~flits:4
  done;
  for _ = 1 to 2 do ignore (Fabric.step fabric) done;
  (* kill resource 0's access link: task 0 can never finish *)
  let dead = Network.res_link net 0 in
  Fault.apply net (Fault.Link_down dead);
  let events = Fabric.refresh_health fabric in
  check Alcotest.bool "stranded task dropped" true
    (List.exists (function Fabric.Dropped { task = 0; _ } -> true | _ -> false)
       events);
  let guard = ref 0 in
  while Fabric.in_flight fabric > 0 && !guard < 1000 do
    ignore (Fabric.step fabric);
    incr guard
  done;
  let s = Fabric.stats fabric in
  check Alcotest.int "others delivered" 7 s.Fabric.delivered_tasks;
  check Alcotest.int "one task dropped" 1 s.Fabric.dropped_tasks

let test_fault_reroutes_on_multipath () =
  (* Gamma has alternates: killing one mid-network link reroutes queued
     flits instead of dropping them. *)
  let net = Builders.gamma 8 in
  let fabric = Fabric.create ~arbiter:(module Arbiter.Islip) net in
  for p = 0 to 7 do
    Fabric.offer fabric ~proc:p ~task:p ~dest:((p + 3) mod 8) ~flits:3
  done;
  for _ = 1 to 2 do ignore (Fabric.step fabric) done;
  (* kill a stage-1 box output link (not a resource access link) *)
  let b = List.hd (Network.boxes_in_stage net 1) in
  let dead = (Network.box_out_links net b).(0) in
  Fault.apply net (Fault.Link_down dead);
  let events = Fabric.refresh_health fabric in
  check Alcotest.(list int) "nothing dropped" []
    (List.filter_map
       (function Fabric.Dropped { task; _ } -> Some task | _ -> None)
       events);
  let guard = ref 0 in
  while Fabric.in_flight fabric > 0 && !guard < 1000 do
    ignore (Fabric.step fabric);
    incr guard
  done;
  let s = Fabric.stats fabric in
  check Alcotest.int "all delivered" 8 s.Fabric.delivered_tasks;
  check Alcotest.int "none dropped" 0 s.Fabric.dropped_tasks

let test_create_validates () =
  let net = Builders.omega 8 in
  Alcotest.check_raises "vq_depth"
    (Invalid_argument "Fabric.create: vq_depth must be >= 1") (fun () ->
      ignore (Fabric.create ~vq_depth:0 ~arbiter:(module Arbiter.Islip) net))

let test_obs_counters () =
  let net = Builders.omega 8 in
  let obs = Rsin_obs.Obs.create () in
  let fabric = Fabric.create ~obs ~arbiter:(module Arbiter.Islip) net in
  for p = 0 to 7 do
    Fabric.offer fabric ~proc:p ~task:p ~dest:0 ~flits:1
  done;
  let guard = ref 0 in
  while Fabric.in_flight fabric > 0 && !guard < 100 do
    ignore (Fabric.step fabric);
    incr guard
  done;
  let m = obs.Rsin_obs.Obs.metrics in
  List.iter
    (fun name ->
      check Alcotest.bool name true (Rsin_obs.Metrics.find m name <> None))
    [ "packet.grants"; "packet.conflicts"; "packet.delivered_flits";
      "packet.injected_flits"; "packet.delay"; "packet.voq_occupancy";
      "packet.buffered"; "packet.box0.grants" ];
  check Alcotest.int "delivered flits counted" 8
    (Rsin_obs.Metrics.get_counter m "packet.delivered_flits")

(* Saturation sweep sanity: throughput tracks offered load far below
   saturation and is monotone-ish; zero load gives zero traffic. *)
let test_sweep_low_load_lossless () =
  let net = Builders.omega 8 in
  let pts =
    Sweep.saturation ~vq_depth:4 ~arbiter:(module Arbiter.Islip)
      (Prng.create 11) net ~slots:400 ~loads:[ 0.0; 0.1 ]
  in
  match pts with
  | [ zero; low ] ->
    check Alcotest.int "zero load offers nothing" 0 zero.Sweep.offered_tasks;
    check Alcotest.int "low load drops nothing" 0 low.Sweep.dropped_tasks;
    check Alcotest.int "low load delivers window" low.Sweep.offered_tasks
      low.Sweep.delivered_tasks;
    (* n_procs = n_res on omega-8, so the two rates are comparable *)
    check Alcotest.bool "throughput near offered" true
      (Float.abs (low.Sweep.throughput -. low.Sweep.accepted) < 0.02)
  | _ -> Alcotest.fail "expected two points"

let test_replay_reserved_idle () =
  (* flits > 1 forces reserved-but-idle resource slots: the reservation
     is held while the packet is still in flight. *)
  let net = Builders.omega 8 in
  let tasks =
    List.init 16 (fun i ->
        { Replay.arrival = i / 8; proc = i mod 8; service = 2; flits = 6 })
  in
  let r =
    Replay.run ~arbiter:(module Arbiter.Islip) (Prng.create 3) net tasks
  in
  check Alcotest.int "all complete" 16 r.Replay.completed;
  check Alcotest.int "none dropped" 0 r.Replay.dropped;
  check Alcotest.bool "reserved idle is visible" true (r.Replay.reserved_idle > 0.);
  check Alcotest.bool "reserved = serving + idle" true
    (Float.abs
       (r.Replay.reserved_utilization
       -. (r.Replay.serving_utilization +. r.Replay.reserved_idle))
    < 1e-9)

let test_replay_fault_drops_service () =
  let net = Builders.omega 8 in
  let tasks =
    List.init 8 (fun i -> { Replay.arrival = 0; proc = i; service = 50; flits = 1 })
  in
  (* every resource dies once tasks are in service *)
  let faults = List.init 8 (fun r -> (10, Fault.Res_down r)) in
  let r =
    Replay.run ~faults ~arbiter:(module Arbiter.Naive_rr) (Prng.create 5) net
      tasks
  in
  check Alcotest.int "all dropped" 8 r.Replay.dropped;
  check Alcotest.int "none complete" 0 r.Replay.completed;
  check Alcotest.int "faults applied" 8 r.Replay.faults_applied

(* --- Replay under a Bernoulli load: the Section-II packet network ------ *)

(* Bernoulli arrivals per processor per slot with geometric service,
   the task trace E24 replays. *)
let bernoulli_tasks rng net ~slots ~arrival ~flits ~mean_service =
  let tasks = ref [] in
  for s = 0 to slots - 1 do
    for p = 0 to Network.n_procs net - 1 do
      if Prng.bernoulli rng arrival then
        tasks :=
          { Replay.arrival = s; proc = p;
            service = 1 + Prng.geometric rng (1. /. mean_service); flits }
          :: !tasks
    done
  done;
  List.rev !tasks

let replay_load ?obs ?(slots = 2000) ?(warmup = 400) ?(flits = 3) ~seed
    ~arrival net =
  let tasks =
    bernoulli_tasks (Prng.create seed) net ~slots ~arrival ~flits
      ~mean_service:4.
  in
  Replay.run ?obs ~vq_depth:2 ~warmup ~arbiter:(module Arbiter.Islip)
    (Prng.create seed) net tasks

let test_replay_load_sanity () =
  let r = replay_load ~seed:1 ~arrival:0.05 (Builders.omega 8) in
  check Alcotest.bool "completes tasks" true (r.Replay.completed > 0);
  check Alcotest.bool "serving <= reserved" true
    (r.Replay.serving_utilization <= r.Replay.reserved_utilization +. 1e-9);
  check Alcotest.bool "utilizations in range" true
    (r.Replay.reserved_utilization <= 1.0 && r.Replay.serving_utilization >= 0.);
  check Alcotest.bool "responses measured" true (r.Replay.mean_response > 0.);
  (* Throughput counts completions and slots from [warmup] on alike:
     below saturation it tracks the offered load, 8 x 0.05 = 0.40. *)
  let offered = 0.05 *. 8. in
  if Float.abs (r.Replay.throughput -. offered) > 0.1 *. offered then
    Alcotest.failf "throughput %.3f, offered %.3f" r.Replay.throughput offered

let test_replay_response_floor () =
  (* 3 flits, a path pipeline and service >= 1: responses below ~6
     slots are impossible at any load *)
  let r = replay_load ~seed:2 ~arrival:0.01 (Builders.omega 8) in
  check Alcotest.bool "response above physical floor" true
    (r.Replay.mean_response >= 6.)

let test_replay_load_monotonicity () =
  let run arrival =
    replay_load ~slots:4000 ~warmup:800 ~seed:3 ~arrival (Builders.omega 16)
  in
  let low = run 0.01 and high = run 0.08 in
  check Alcotest.bool "throughput grows with load" true
    (high.Replay.throughput > low.Replay.throughput);
  check Alcotest.bool "reservation grows with load" true
    (high.Replay.reserved_utilization > low.Replay.reserved_utilization)

let test_replay_reservation_overhead () =
  (* the paper's claim: with multi-flit tasks, reserved > serving by a
     visible margin (the resource idles while the flits arrive) *)
  let r =
    replay_load ~slots:4000 ~flits:6 ~seed:4 ~arrival:0.05 (Builders.omega 16)
  in
  check Alcotest.bool "reservation overhead visible" true
    (r.Replay.reserved_utilization > 1.3 *. r.Replay.serving_utilization)

let test_replay_single_flit () =
  let r = replay_load ~flits:1 ~seed:5 ~arrival:0.05 (Builders.omega 8) in
  check Alcotest.bool "single-flit tasks complete" true (r.Replay.completed > 0);
  check Alcotest.int "every task completes" r.Replay.arrivals r.Replay.completed

let test_replay_validation () =
  Alcotest.check_raises "bad buffer depth"
    (Invalid_argument "Fabric.create: vq_depth must be >= 1") (fun () ->
      ignore
        (Replay.run ~vq_depth:0 ~arbiter:(module Arbiter.Islip) (Prng.create 1)
           (Builders.omega 8) []));
  (* multipath networks run: routing picks among the candidate ports *)
  let r = replay_load ~seed:1 ~arrival:0.05 (Builders.benes 8) in
  check Alcotest.bool "benes completes tasks" true (r.Replay.completed > 0);
  check Alcotest.int "every task completes" r.Replay.arrivals r.Replay.completed

let test_replay_reserved_idle_gauge () =
  let obs = Rsin_obs.Obs.create () in
  let r =
    replay_load ~obs ~slots:4000 ~flits:6 ~seed:7 ~arrival:0.05
      (Builders.omega 16)
  in
  check Alcotest.bool "idle overhead positive" true (r.Replay.reserved_idle > 0.);
  let m = obs.Rsin_obs.Obs.metrics in
  (match Rsin_obs.Metrics.find m "packet.reserved_idle" with
  | Some (Rsin_obs.Metrics.Gauge g) ->
    check (Alcotest.float 1e-9) "gauge matches" r.Replay.reserved_idle g
  | _ -> Alcotest.fail "packet.reserved_idle gauge missing");
  match Rsin_obs.Metrics.find m "packet.response" with
  | Some (Rsin_obs.Metrics.Histogram h) ->
    check Alcotest.int "one response per completion" r.Replay.completed h.n
  | _ -> Alcotest.fail "packet.response histogram missing"

let test_replay_deterministic () =
  let run () = replay_load ~seed:6 ~arrival:0.05 (Builders.omega 8) in
  check Alcotest.bool "same seed, same report" true (run () = run ())

let suite =
  [
    qtest "routing total and consistent on healthy nets" net_arb
      prop_routing_total;
    qtest "flit conservation and lossless drain"
      QCheck.(pair net_arb small_nat)
      prop_conservation;
    qtest "fabric runs are deterministic"
      QCheck.(pair net_arb small_nat)
      prop_deterministic;
    qtest "accepts at least circuit-mode allocations"
      QCheck.(pair net_arb small_nat)
      prop_accepts_at_least_circuit;
    Alcotest.test_case "vq_depth=1 backpressure is lossless" `Quick
      test_backpressure_depth1;
    Alcotest.test_case "unreachable destination drops at injection" `Quick
      test_unreachable_drops;
    Alcotest.test_case "fault strands tasks on single-path nets" `Quick
      test_fault_drops_on_single_path;
    Alcotest.test_case "fault reroutes on multipath nets" `Quick
      test_fault_reroutes_on_multipath;
    Alcotest.test_case "create validates vq_depth" `Quick test_create_validates;
    Alcotest.test_case "obs counters registered" `Quick test_obs_counters;
    Alcotest.test_case "sweep: low load is lossless" `Quick
      test_sweep_low_load_lossless;
    Alcotest.test_case "replay: reserved-but-idle accounted" `Quick
      test_replay_reserved_idle;
    Alcotest.test_case "replay: resource death drops its task" `Quick
      test_replay_fault_drops_service;
  ]

(* The Section-II packet network: Replay under a Bernoulli task load. *)
let packet_suite =
  [
    Alcotest.test_case "sanity" `Quick test_replay_load_sanity;
    Alcotest.test_case "response floor" `Quick test_replay_response_floor;
    Alcotest.test_case "load monotonicity" `Quick test_replay_load_monotonicity;
    Alcotest.test_case "reservation overhead" `Quick
      test_replay_reservation_overhead;
    Alcotest.test_case "single-packet tasks" `Quick test_replay_single_flit;
    Alcotest.test_case "validation" `Quick test_replay_validation;
    Alcotest.test_case "reserved-idle gauge" `Quick
      test_replay_reserved_idle_gauge;
    Alcotest.test_case "deterministic" `Quick test_replay_deterministic;
  ]
