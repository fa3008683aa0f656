(* The flat CSR flow core (Rsin_flow.Csr) vs the mutable-adjacency
   Graph: structural invariants of the emission (check_rev_pairing),
   state-accessor agreement under random mutation, and the differential
   guarantees of the registry solver dinic-csr — the same flow on
   every arc as its adjacency original — and of the warm engine, which runs on the CSR core only: the allocation and
   total served priority of a from-scratch transformation on every
   topology family, including degraded (fault-masked) networks and
   hundreds of warm churn cycles. *)

module Graph = Rsin_flow.Graph
module Csr = Rsin_flow.Csr
module Solver = Rsin_flow.Solver
module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Netgraph = Rsin_core.Netgraph
module Scheduler = Rsin_core.Scheduler
module T1 = Rsin_core.Transform1
module T2 = Rsin_core.Transform2
module Workload = Rsin_sim.Workload
module Fault = Rsin_fault.Fault
module Incremental = Rsin_engine.Incremental
module Engine = Rsin_engine.Engine
module Prng = Rsin_util.Prng

let check = Alcotest.check

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let topologies =
  [ ("omega", fun () -> Builders.omega 8);
    ("butterfly", fun () -> Builders.butterfly 8);
    ("benes", fun () -> Builders.benes 8);
    ("clos", fun () -> Builders.clos ~m:3 ~n:2 ~r:4);
    ("crossbar", fun () -> Builders.crossbar ~n_procs:6 ~n_res:6);
    ("delta", fun () -> Builders.delta ~radix:2 ~stages:3);
    ("extra_stage", fun () -> Builders.extra_stage_omega 8 ~extra:1) ]

(* A random scenario over a partially occupied, partially *broken*
   network: preoccupied circuits exercise step T4's occupancy drops,
   random element downs exercise the health mask. *)
let scenario ?(faults = true) seed (name, build) =
  let rng = Prng.create (Hashtbl.hash (name, seed)) in
  let net = build () in
  ignore (Workload.preoccupy rng net ~circuits:(Prng.int rng 3));
  if faults then begin
    for l = 0 to Network.n_links net - 1 do
      if Prng.float rng 1.0 < 0.06 then Network.set_link_up net l false
    done;
    for b = 0 to Network.n_boxes net - 1 do
      if Prng.float rng 1.0 < 0.05 then Network.set_box_up net b false
    done;
    for r = 0 to Network.n_res net - 1 do
      if Prng.float rng 1.0 < 0.05 then Network.set_res_up net r false
    done
  end;
  let requests, free = Workload.snapshot rng net in
  let busy_p, busy_r = Workload.occupied_endpoints net in
  let requests = List.filter (fun p -> not (List.mem p busy_p)) requests in
  let free = List.filter (fun r -> not (List.mem r busy_r)) free in
  (rng, net, requests, free)

(* --- of_graph invariants and accessor agreement -------------------------- *)

(* A random residual network: arbitrary arcs, capacities, costs, and a
   random feasible flow pushed through Graph.push on both sides. *)
let random_graph rng =
  let g = Graph.create () in
  let n = 2 + Prng.int rng 9 in
  ignore (Graph.add_nodes g n);
  let arcs = 1 + Prng.int rng 25 in
  for _ = 1 to arcs do
    let s = Prng.int rng n in
    let d = (s + 1 + Prng.int rng (n - 1)) mod n in
    ignore
      (Graph.add_arc g ~cost:(Prng.int rng 7 - 3) ~src:s ~dst:d
         ~cap:(Prng.int rng 4))
  done;
  (* Random pushes on random sides leave a valid residual state. *)
  for _ = 1 to 2 * arcs do
    let a = Prng.int rng (2 * Graph.arc_count g) in
    let room = Graph.capacity g a in
    if room > 0 then Graph.push g a (1 + Prng.int rng room)
  done;
  g

let agree g c =
  let ok = ref true in
  let expect name a want got =
    if want <> got then begin
      ok := false;
      QCheck.Test.fail_reportf "arc %d: %s: graph %d, csr %d" a name want got
    end
  in
  Graph.iter_forward_arcs g (fun a ->
      expect "capacity" a (Graph.capacity g a) (Csr.capacity c a);
      expect "residual capacity" a
        (Graph.capacity g (a + 1))
        (Csr.capacity c (a + 1));
      expect "flow" a (Graph.flow g a) (Csr.flow c a);
      expect "original" a
        (Graph.original_capacity g a)
        (Csr.original_capacity c a));
  for v = 0 to Graph.node_count g - 1 do
    expect "node out-flow" v (Graph.out_flow g v) (Csr.flow_value c ~source:v)
  done;
  !ok

let test_of_graph_invariants =
  qtest "of_graph: rev pairing + accessor agreement on random graphs"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let g = random_graph rng in
      let c = Csr.of_graph g in
      (match Csr.check_rev_pairing c with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "rev pairing: %s" e);
      agree g c)

let test_mutation_agreement =
  qtest "random mirrored mutations keep Graph and Csr in agreement"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let g = random_graph rng in
      let c = Csr.of_graph g in
      let pairs = Graph.arc_count g in
      for _ = 1 to 60 do
        let a = 2 * Prng.int rng pairs in
        match Prng.int rng 4 with
        | 0 ->
          let cap = Graph.flow g a + Prng.int rng 3 in
          Graph.set_capacity g a cap;
          Csr.set_capacity c a cap
        | 1 ->
          let f = Prng.int rng (Graph.original_capacity g a + 1) in
          Graph.set_flow g a f;
          Csr.set_flow c a f
        | 2 ->
          let side = if Prng.int rng 2 = 0 then a else a + 1 in
          let room = Graph.capacity g side in
          if room > 0 then begin
            let k = 1 + Prng.int rng room in
            Graph.push g side k;
            Csr.push c side k
          end
        | _ ->
          (* freeze/thaw round-trip on a saturated arc: the graph has no
             frozen state, so the round trip must leave the CSR equal
             to it again. *)
          if Csr.capacity c a = 0 then begin
            Csr.freeze c a;
            if not (Csr.is_frozen c a) then
              QCheck.Test.fail_report "freeze did not mark the pair";
            Csr.thaw c a
          end
      done;
      (match Csr.check_rev_pairing c with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "rev pairing after churn: %s" e);
      agree g c)

(* --- Netgraph emission ---------------------------------------------------- *)

let test_netgraph_emission () =
  List.iter
    (fun ((name, _) as topo) ->
      let _rng, net, requests, free = scenario 17 topo in
      let ng =
        Netgraph.compile net
          ~requests:(List.map (fun p -> (p, 0)) requests)
          ~free:(List.map (fun r -> (r, 0)) free)
      in
      let c = Csr.of_graph (Netgraph.graph ng) in
      check Alcotest.(result unit string) (name ^ ": snapshot pairing") (Ok ())
        (Csr.check_rev_pairing c);
      check Alcotest.int (name ^ ": same shape as the graph")
        (Graph.arc_count (Netgraph.graph ng))
        (Csr.arc_count c);
      let full = Netgraph.compile_full (Network.copy net) in
      let cf = Netgraph.graph full in
      check Alcotest.(result unit string) (name ^ ": full pairing") (Ok ())
        (Csr.check_rev_pairing cf);
      let nodes, arcs = Netgraph.size full in
      check Alcotest.(pair int int) (name ^ ": size is the CSR's shape")
        (nodes, arcs)
        (Csr.node_count cf, Csr.arc_count cf))
    topologies

(* --- Registry differential: CSR solvers vs their adjacency originals ------ *)

(* Solve copies of the same snapshot with two registry solvers and
   compare the flow on every arc: the CSR pair copies its flow back with
   Csr.write_flows, so equal tie-breaks show up as equal graphs. This
   pins the two cores to the same trajectory, not just the same
   optimum. *)
let same_flows ~what ~name ~seed g s0 s1 ~source ~sink =
  let run s =
    let module S = (val Solver.get s : Solver.S) in
    let g = Graph.copy g in
    let f, _w = S.max_flow g ~source ~sink in
    (match Graph.check_conservation g ~source ~sink with
    | Ok () -> ()
    | Error e ->
      QCheck.Test.fail_reportf "%s seed %d: %s conservation: %s" name seed s e);
    (f, g)
  in
  let f0, g0 = run s0 and f1, g1 = run s1 in
  if f0 <> f1 then
    QCheck.Test.fail_reportf "%s seed %d: %s %d, %s %d" name seed s0 f0 s1 f1;
  Graph.iter_forward_arcs g0 (fun a ->
      if Graph.flow g0 a <> Graph.flow g1 a then
        QCheck.Test.fail_reportf
          "%s seed %d: %s: arc %d carries %d under %s, %d under %s" name seed
          what a (Graph.flow g0 a) s0 (Graph.flow g1 a) s1)

let test_dinic_csr_differential =
  qtest "dinic-csr = dinic on every topology incl. degraded, arc for arc"
    ~count:80 QCheck.small_int (fun seed ->
      List.for_all
        (fun ((name, _) as topo) ->
          let _rng, net, requests, free = scenario seed topo in
          let tr = T1.build net ~requests ~free in
          same_flows ~what:"T1" ~name ~seed (T1.graph tr) "dinic" "dinic-csr"
            ~source:(T1.source tr) ~sink:(T1.sink tr);
          true)
        topologies)

(* Work records populated consistently: dinic-csr reports the same kind
   of numbers as dinic (augmentations count flow units, and scan work
   is nonzero). *)
let test_work_record_consistency () =
  let _rng, net, requests, free = scenario ~faults:false 5 (List.hd topologies) in
  let tr = T1.build net ~requests ~free in
  let g0 = Graph.copy (T1.graph tr) and g1 = Graph.copy (T1.graph tr) in
  let source = T1.source tr and sink = T1.sink tr in
  let module D = (val Solver.get "dinic" : Solver.S) in
  let module DC = (val Solver.get "dinic-csr" : Solver.S) in
  let f0, w0 = D.max_flow g0 ~source ~sink in
  let f1, w1 = DC.max_flow g1 ~source ~sink in
  check Alcotest.int "flow equal" f0 f1;
  check Alcotest.int "augmentations count flow units" f1 w1.Solver.augmentations;
  check Alcotest.bool "phases populated" true (w1.Solver.passes >= 1);
  check Alcotest.bool "arcs scanned populated" true (w1.Solver.arcs_scanned > 0);
  check Alcotest.int "dinic counts the same augmentations" f0
    w0.Solver.augmentations

(* --- Warm churn: Incremental's CSR core vs from-scratch T1/T2 ------------ *)

(* Drive one Incremental engine through a random warm churn sequence —
   enables, solves, staggered partial releases — and compare every solve
   against a from-scratch transformation of the same snapshot, mirrored
   on a reference network where the committed circuits are established
   for real: each solve must be optimal — allocation count and, under
   Priority, total served priority — for its snapshot, cycle by cycle. *)
let churn discipline net seed rounds =
  let eng = Incremental.create ~discipline net in
  let refnet = Network.copy net in
  let np = Network.n_procs net and nr = Network.n_res net in
  let rng = Prng.create seed in
  let prio = Array.make np 0 in
  let live = ref [] in
  let cycles = ref 0 in
  for round = 1 to rounds do
    let busy_p = List.map fst !live
    and busy_r = List.map (fun (p, _) -> Incremental.circuit_res eng p) !live in
    for p = 0 to np - 1 do
      if not (List.mem p busy_p) then begin
        let on = Prng.float rng 1.0 < 0.5 in
        let y = 1 + Prng.int rng 4 in
        prio.(p) <- y;
        Incremental.set_requesting eng ~priority:y p on
      end
    done;
    for r = 0 to nr - 1 do
      if not (List.mem r busy_r) then
        Incremental.set_resource_free eng r (Prng.float rng 1.0 < 0.6)
    done;
    let found = List.init (Incremental.solve eng) (Incremental.found eng) in
    incr cycles;
    let label what = Printf.sprintf "seed %d round %d: %s" seed round what in
    (* The pre-commit snapshot: pending requests and free resources are
       the switched-on endpoint arcs not held by a live circuit. *)
    let pending =
      List.filter
        (fun p -> Incremental.requesting eng p && not (List.mem p busy_p))
        (List.init np Fun.id)
    and frees =
      List.filter
        (fun r -> Incremental.resource_free eng r && not (List.mem r busy_r))
        (List.init nr Fun.id)
    in
    (match discipline with
    | Incremental.Maxflow ->
      let reference = T1.schedule refnet ~requests:pending ~free:frees in
      check Alcotest.int
        (label "allocation = from-scratch T1")
        reference.T1.allocated (List.length found)
    | Incremental.Priority ->
      let reference =
        T2.schedule refnet
          ~requests:(List.map (fun p -> (p, prio.(p))) pending)
          ~free:(List.map (fun r -> (r, 0)) frees)
      in
      check Alcotest.int
        (label "allocation = from-scratch T2")
        reference.T2.allocated (List.length found);
      let served_ref =
        List.fold_left (fun acc (p, _) -> acc + prio.(p)) 0 reference.T2.mapping
      and served_eng = List.fold_left (fun acc p -> acc + prio.(p)) 0 found in
      check Alcotest.int (label "served priority = from-scratch T2") served_ref
        served_eng);
    check Alcotest.(result unit string) (label "conservation") (Ok ())
      (Incremental.check eng);
    (* Mirror the commits as real circuits on the reference network. *)
    List.iter
      (fun p ->
        live :=
          (p, Network.establish refnet (Incremental.circuit_links eng p)) :: !live)
      found;
    (* Staggered releases: every third round, free a random subset. *)
    if round mod 3 = 0 then begin
      let keep, drop =
        List.partition (fun _ -> Prng.float rng 1.0 < 0.5) !live
      in
      List.iter
        (fun (p, id) ->
          Incremental.release eng p;
          Network.release refnet id)
        drop;
      live := keep
    end
  done;
  !cycles

(* --- The class-by-class solve vs from-scratch Transformation 2 ---------- *)

(* Priorities for [np] requests under one of four regimes: all equal,
   all distinct, a few small classes, and values near 2^53 mixed with
   0. Together they cover 0, 2^53 and values just below it. *)
let top = 1 lsl 53

let priorities rng ~regime np =
  match regime with
  | 0 ->
    let y = [| 0; 1; top; top - 1 |].(Prng.int rng 4) in
    Array.make np y
  | 1 ->
    let ys = Array.init np (fun k -> if k land 1 = 0 then k else top - k) in
    Prng.shuffle rng ys;
    ys
  | 2 -> Array.init np (fun _ -> Prng.int rng 4)
  | _ ->
    Array.init np (fun _ ->
        if Prng.int rng 4 = 0 then 0 else top - Prng.int rng 3)

(* One Priority engine takes a random churn: endpoint switches, link
   faults and repairs, staggered releases. Before each solve its
   pre-solve snapshot goes to a from-scratch Transformation 2: the
   pending requests and free resources no circuit holds, on a copy of
   the network with every switched-off or frozen link taken down. The
   class-by-class solve must reach the same allocation count and the
   same total served priority. *)
let class_solve_matches_t2 (name, build) =
  qtest (name ^ ": class-by-class solve = from-scratch T2") ~count:12
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, regime) ->
      let net = build () in
      let eng = Incremental.create ~discipline:Incremental.Priority net in
      let ng = Incremental.netgraph eng in
      let c = Netgraph.graph ng in
      let np = Network.n_procs net and nr = Network.n_res net in
      let nl = Network.n_links net in
      let link_arc l = Option.get (Netgraph.arc_of_link ng l) in
      let rng = Prng.create seed in
      let busy_res = Array.make nr false in
      for round = 1 to 16 do
        let prio = priorities rng ~regime np in
        for p = 0 to np - 1 do
          if not (Incremental.holds eng p) then
            Incremental.set_requesting eng ~priority:prio.(p) p
              (Prng.float rng 1.0 < 0.6)
        done;
        for r = 0 to nr - 1 do
          if not busy_res.(r) then
            Incremental.set_resource_free eng r (Prng.float rng 1.0 < 0.5)
        done;
        for _ = 1 to 2 do
          let l = Prng.int rng nl in
          if not (Csr.is_frozen c (link_arc l)) then
            Incremental.set_link_usable eng l (Prng.float rng 1.0 < 0.7)
        done;
        let snap = Network.copy net in
        for l = 0 to nl - 1 do
          let a = link_arc l in
          if Csr.is_frozen c a || Csr.original_capacity c a = 0 then
            Network.set_link_up snap l false
        done;
        let requests =
          List.filter_map
            (fun p ->
              if Incremental.requesting eng p && not (Incremental.holds eng p)
              then Some (p, prio.(p))
              else None)
            (List.init np Fun.id)
        and free =
          List.filter_map
            (fun r ->
              if Incremental.resource_free eng r && not busy_res.(r) then
                Some (r, 0)
              else None)
            (List.init nr Fun.id)
        in
        let want = T2.schedule snap ~requests ~free in
        let want_served =
          List.fold_left (fun acc (p, _) -> acc + prio.(p)) 0 want.T2.mapping
        in
        let n = Incremental.solve eng in
        let found = List.init n (Incremental.found eng) in
        let served = List.fold_left (fun acc p -> acc + prio.(p)) 0 found in
        if n <> want.T2.allocated || served <> want_served then
          QCheck.Test.fail_reportf
            "round %d: class by class %d circuits serving %d, from-scratch \
             T2 %d serving %d"
            round n served want.T2.allocated want_served;
        List.iter
          (fun p -> busy_res.(Incremental.circuit_res eng p) <- true)
          found;
        (match Incremental.check eng with
        | Ok () -> ()
        | Error m -> QCheck.Test.fail_reportf "round %d: %s" round m);
        for p = 0 to np - 1 do
          if Incremental.holds eng p && Prng.float rng 1.0 < 0.4 then begin
            busy_res.(Incremental.circuit_res eng p) <- false;
            Incremental.release eng p
          end
        done
      done;
      true)

(* --- One-pass extraction vs the rescanning walk ----------------------------- *)

(* The reference decomposition: from the source, walk arcs carrying
   unfrozen flow, each picked by a fresh scan of its node's row from the
   end (next_flow_arc), freezing as it goes, until the source has none. *)
let rescanning_paths c ~source ~sink =
  let rec walk v acc =
    if v = sink then List.rev acc
    else
      let a = Csr.next_flow_arc c v in
      if a < 0 then failwith "reference walk: stranded flow";
      Csr.freeze c a;
      walk (Csr.dst c a) (a :: acc)
  in
  let rec paths acc =
    if Csr.next_flow_arc c source < 0 then List.rev acc
    else paths (walk source [] :: acc)
  in
  paths []

let one_pass_paths c ~source ~sink =
  let arcs = Array.make (Csr.arc_count c) 0 in
  let ends = Array.make (Csr.arc_count c) 0 in
  let n = Csr.extract_paths c ~source ~sink ~arcs ~ends in
  List.init n (fun k ->
      let start = if k = 0 then 0 else ends.(k - 1) in
      Array.to_list (Array.sub arcs start (ends.(k) - start)))

(* Two copies of one compile_full network take the same random warm
   churn: endpoint switches, a Dinic augment, extraction, staggered
   releases. At every augment one copy extracts in one pass and the
   other by the rescanning walk; the circuits must agree arc for arc,
   in order, and the copies stay identical. *)
let extraction_matches (name, build) =
  qtest (name ^ ": one-pass extraction = rescanning walk") ~count:15
    QCheck.small_int (fun seed ->
      let net = build () in
      let ga = Netgraph.compile_full net and gb = Netgraph.compile_full net in
      let a = Netgraph.graph ga and b = Netgraph.graph gb in
      let source = Netgraph.source ga and sink = Netgraph.sink ga in
      let endpoints =
        List.init (Network.n_procs net) (fun p -> Option.get (Netgraph.sp_arc ga p))
        @ List.init (Network.n_res net) (fun r -> Option.get (Netgraph.rt_arc ga r))
      in
      let rng = Prng.create seed in
      let live = ref [] in
      for round = 1 to 12 do
        List.iter
          (fun e ->
            if not (Csr.is_frozen a e) then begin
              let cap = if Prng.float rng 1.0 < 0.5 then 1 else 0 in
              Csr.set_capacity a e cap;
              Csr.set_capacity b e cap
            end)
          endpoints;
        let fa = Csr.dinic a ~source ~sink and fb = Csr.dinic b ~source ~sink in
        let got = one_pass_paths a ~source ~sink in
        let want = rescanning_paths b ~source ~sink in
        if fa <> fb || got <> want then
          QCheck.Test.fail_reportf "round %d: %d path(s) in one pass, %d rescanning"
            round (List.length got) (List.length want);
        if List.length got <> fa then
          QCheck.Test.fail_reportf "round %d: %d paths for %d units" round
            (List.length got) fa;
        let keep, drop =
          List.partition (fun _ -> Prng.float rng 1.0 < 0.6) (got @ !live)
        in
        List.iter
          (fun path ->
            List.iter
              (fun arc ->
                List.iter
                  (fun c ->
                    Csr.thaw c arc;
                    Csr.set_flow c arc 0)
                  [ a; b ])
              path;
            List.iter
              (fun c ->
                Csr.set_capacity c (List.hd path) 0;
                Csr.set_capacity c (List.nth path (List.length path - 1)) 0)
              [ a; b ])
          drop;
        live := keep
      done;
      true)

let test_warm_churn () =
  let cycles = ref 0 in
  List.iter
    (fun (_, build) ->
      List.iter
        (fun (discipline, seed) ->
          cycles := !cycles + churn discipline (build ()) seed 60)
        [ (Incremental.Maxflow, 21); (Incremental.Priority, 22) ])
    [ List.nth topologies 0; List.nth topologies 2; List.nth topologies 3 ];
  check Alcotest.bool "at least 300 warm churn cycles" true (!cycles >= 300)

(* --- Engine-level: the default warm config under fault churn ------------- *)

(* The full engine differential on the default warm configuration:
   every entered cycle must allocate exactly what a from-scratch
   Scheduler run on the same degraded pre-commit snapshot allocates. *)
let test_engine_differential () =
  let total_cycles = ref 0 in
  List.iter
    (fun (name, build) ->
      List.iter
        (fun seed ->
          let net = build () in
          let base =
            Workload.synthesize ~deadline_slack:25 ~cancel_prob:0.1
              (Prng.create seed) net ~slots:150 ~arrival_prob:0.3
          in
          let sched =
            Fault.inject
              (Prng.create ((seed * 7) + 1))
              net ~horizon:150 ~mtbf:40. ~mttr:12.
          in
          let trace =
            List.stable_sort
              (fun a b ->
                compare (Workload.event_time a) (Workload.event_time b))
              (base @ Workload.fault_events sched)
          in
          let hook snapshot (info : Engine.cycle_info) =
            incr total_cycles;
            let reference =
              Scheduler.schedule snapshot
                ~requests:(List.map Scheduler.request info.Engine.requests)
                ~resources:(List.map Scheduler.resource info.Engine.free)
            in
            check Alcotest.int
              (Printf.sprintf "%s seed %d cycle at t=%d" name seed
                 info.Engine.time)
              reference.Scheduler.allocated info.Engine.allocated
          in
          let config = Engine.Config.v ~transmission_time:2 ~max_defer:8 () in
          let report = Engine.run ~config ~cycle_hook:hook net trace in
          check Alcotest.bool
            (Printf.sprintf "%s seed %d applied faults" name seed)
            true
            (report.Engine.faults > 0))
        [ 10; 11 ])
    [ List.nth topologies 0; List.nth topologies 2; List.nth topologies 3 ];
  check Alcotest.bool "at least 150 engine differential cycles" true
    (!total_cycles >= 150)

(* Priority discipline on the default warm configuration: allocation
   count AND total served priority equal a from-scratch Transformation 2
   of the same snapshot, cycle by cycle. *)
let test_engine_priority_differential () =
  let total_cycles = ref 0 in
  List.iter
    (fun (name, build) ->
      List.iter
        (fun seed ->
          let net = build () in
          let trace =
            Workload.synthesize ~deadline_slack:25 ~cancel_prob:0.1
              ~priority_levels:4 (Prng.create seed) net ~slots:150
              ~arrival_prob:0.3
          in
          let hook snapshot (info : Engine.cycle_info) =
            incr total_cycles;
            let label what =
              Printf.sprintf "%s seed %d cycle at t=%d: %s" name seed
                info.Engine.time what
            in
            let reference =
              T2.schedule snapshot ~requests:info.Engine.request_priorities
                ~free:(List.map (fun r -> (r, 0)) info.Engine.free)
            in
            check Alcotest.int (label "allocation") reference.T2.allocated
              info.Engine.allocated;
            let served mapping =
              List.fold_left
                (fun acc (p, _) ->
                  acc + List.assoc p info.Engine.request_priorities)
                0 mapping
            in
            check Alcotest.int (label "total priority served")
              (served reference.T2.mapping)
              (served info.Engine.mapping)
          in
          let report =
            Engine.run ~cycle_hook:hook
              ~config:
                (Engine.Config.v ~discipline:Engine.Priority
                   ~transmission_time:2 ~max_defer:8 ())
              net trace
          in
          check Alcotest.bool
            (Printf.sprintf "%s seed %d allocated something" name seed)
            true
            (report.Engine.allocated > 0))
        [ 10; 11 ])
    [ List.nth topologies 0; List.nth topologies 2 ];
  check Alcotest.bool "at least 150 priority differential cycles" true
    (!total_cycles >= 150)

let suite =
  [
    test_of_graph_invariants;
    test_mutation_agreement;
    Alcotest.test_case "Netgraph CSR emission" `Quick test_netgraph_emission;
    test_dinic_csr_differential;
    Alcotest.test_case "work records populated consistently" `Quick
      test_work_record_consistency;
    Alcotest.test_case "warm churn: CSR core = from-scratch T1/T2" `Slow
      test_warm_churn;
    Alcotest.test_case "engine differential under fault churn" `Slow
      test_engine_differential;
    Alcotest.test_case "engine priority differential vs from-scratch T2" `Slow
      test_engine_priority_differential;
    extraction_matches ("omega:64", fun () -> Builders.omega 64);
    extraction_matches ("clos:8,8,8", fun () -> Builders.clos ~m:8 ~n:8 ~r:8);
    class_solve_matches_t2 ("omega:16", fun () -> Builders.omega 16);
    class_solve_matches_t2 ("omega:64", fun () -> Builders.omega 64);
    class_solve_matches_t2 ("clos:3,4,4", fun () -> Builders.clos ~m:3 ~n:4 ~r:4);
  ]
