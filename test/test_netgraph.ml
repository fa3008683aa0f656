(* Properties of the shared network->flow compiler (Rsin_core.Netgraph):
   the link<->arc correspondence round-trips, and the graphs the
   refactored Transform1/Transform2 compile through Netgraph are
   arc-for-arc identical to what the pre-refactor per-module builders
   produced (replicated verbatim below from the deleted code), on random
   snapshots of every topology family. *)

module Graph = Rsin_flow.Graph
module Csr = Rsin_flow.Csr
module Netgraph = Rsin_core.Netgraph
module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Workload = Rsin_sim.Workload
module T1 = Rsin_core.Transform1
module T2 = Rsin_core.Transform2
module Prng = Rsin_util.Prng

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

(* A random scenario: a partially occupied network plus request/free
   subsets, exercising all of step T4's drop rules. *)
let scenario seed (name, build) =
  let rng = Prng.create (Hashtbl.hash (name, seed)) in
  let net = build () in
  ignore (Workload.preoccupy rng net ~circuits:(Prng.int rng 3));
  let requests, free = Workload.snapshot rng net in
  let busy_p, busy_r = Workload.occupied_endpoints net in
  let requests = List.filter (fun p -> not (List.mem p busy_p)) requests in
  let free = List.filter (fun r -> not (List.mem r busy_r)) free in
  (rng, net, requests, free)

(* --- pre-refactor builders, replicated verbatim ------------------------- *)

(* Transform1.build as it existed before the Netgraph refactor. *)
let old_t1_build net ~requests ~free =
  let np = Network.n_procs net and nr = Network.n_res net in
  let requests = List.sort_uniq compare requests
  and free = List.sort_uniq compare free in
  let g = Graph.create () in
  let source = Graph.add_node g and sink = Graph.add_node g in
  let procs = Array.make np (-1) and ress = Array.make nr (-1) in
  let boxes = Array.init (Network.n_boxes net) (fun _ -> Graph.add_node g) in
  List.iter (fun p -> procs.(p) <- Graph.add_node g) requests;
  List.iter (fun r -> ress.(r) <- Graph.add_node g) free;
  List.iter
    (fun p -> ignore (Graph.add_arc g ~src:source ~dst:procs.(p) ~cap:1))
    requests;
  List.iter
    (fun r -> ignore (Graph.add_arc g ~src:ress.(r) ~dst:sink ~cap:1))
    free;
  for l = 0 to Network.n_links net - 1 do
    if Network.link_state net l = Network.Free then begin
      let node_of = function
        | Network.Proc p -> if procs.(p) >= 0 then Some procs.(p) else None
        | Network.Res r -> if ress.(r) >= 0 then Some ress.(r) else None
        | Network.Box_in (b, _) | Network.Box_out (b, _) -> Some boxes.(b)
      in
      match
        (node_of (Network.link_src net l), node_of (Network.link_dst net l))
      with
      | Some u, Some v -> ignore (Graph.add_arc g ~src:u ~dst:v ~cap:1)
      | _ -> ()
    end
  done;
  g

(* Transform2.build as it existed before the Netgraph refactor. *)
let old_t2_build net ~requests ~free =
  let np = Network.n_procs net and nr = Network.n_res net in
  let ymax = List.fold_left (fun m (_, y) -> max m y) 0 requests in
  let qmax = List.fold_left (fun m (_, q) -> max m q) 0 free in
  let bypass_cost = max (ymax + 1) (qmax + 1) in
  let g = Graph.create () in
  let source = Graph.add_node g and sink = Graph.add_node g in
  let bypass = Graph.add_node g in
  let procs = Array.make np (-1) and ress = Array.make nr (-1) in
  let boxes = Array.init (Network.n_boxes net) (fun _ -> Graph.add_node g) in
  List.iter (fun (p, _) -> procs.(p) <- Graph.add_node g) requests;
  List.iter (fun (r, _) -> ress.(r) <- Graph.add_node g) free;
  List.iter
    (fun (p, y) ->
      ignore (Graph.add_arc g ~cost:(ymax - y) ~src:source ~dst:procs.(p) ~cap:1);
      ignore (Graph.add_arc g ~cost:bypass_cost ~src:procs.(p) ~dst:bypass ~cap:1))
    requests;
  ignore
    (Graph.add_arc g ~cost:bypass_cost ~src:bypass ~dst:sink
       ~cap:(List.length requests));
  List.iter
    (fun (r, q) ->
      ignore (Graph.add_arc g ~cost:(qmax - q) ~src:ress.(r) ~dst:sink ~cap:1))
    free;
  for l = 0 to Network.n_links net - 1 do
    if Network.link_state net l = Network.Free then begin
      let node_of = function
        | Network.Proc p -> if procs.(p) >= 0 then Some procs.(p) else None
        | Network.Res r -> if ress.(r) >= 0 then Some ress.(r) else None
        | Network.Box_in (b, _) | Network.Box_out (b, _) -> Some boxes.(b)
      in
      match
        (node_of (Network.link_src net l), node_of (Network.link_dst net l))
      with
      | Some u, Some v -> ignore (Graph.add_arc g ~src:u ~dst:v ~cap:1)
      | _ -> ()
    end
  done;
  g

let graphs_equal a b =
  Graph.node_count a = Graph.node_count b
  && Graph.arc_count a = Graph.arc_count b
  &&
  let ok = ref true in
  Graph.iter_forward_arcs a (fun arc ->
      if
        Graph.src a arc <> Graph.src b arc
        || Graph.dst a arc <> Graph.dst b arc
        || Graph.original_capacity a arc <> Graph.original_capacity b arc
        || Graph.cost a arc <> Graph.cost b arc
      then ok := false);
  !ok

(* --- properties --------------------------------------------------------- *)

let test_roundtrip =
  qtest "link<->arc map round-trips on every topology" ~count:60
    QCheck.small_int (fun seed ->
      List.for_all
        (fun topo ->
          let _rng, net, requests, free = scenario seed topo in
          let ng =
            Netgraph.compile net
              ~requests:(List.map (fun p -> (p, 0)) requests)
              ~free:(List.map (fun r -> (r, 0)) free)
          in
          (* Every compiled link arc round-trips both ways... *)
          Array.for_all
            (fun (a, l) ->
              Netgraph.arc_of_link ng l = Some a
              && Netgraph.link_of_arc ng a = Some l)
            (Netgraph.link_arcs ng)
          (* ...and every link either round-trips or was dropped. *)
          && List.for_all
               (fun l ->
                 match Netgraph.arc_of_link ng l with
                 | Some a -> Netgraph.link_of_arc ng a = Some l
                 | None ->
                   Network.link_state net l <> Network.Free
                   || (match Network.link_src net l with
                      | Network.Proc p -> not (List.mem p requests)
                      | Network.Res r -> not (List.mem r free)
                      | _ -> false)
                   || (match Network.link_dst net l with
                      | Network.Proc p -> not (List.mem p requests)
                      | Network.Res r -> not (List.mem r free)
                      | _ -> false))
               (List.init (Network.n_links net) Fun.id))
        topologies)

let test_t1_matches_prerefactor =
  qtest "Transform1 graphs match the pre-refactor builder arc-for-arc"
    ~count:60 QCheck.small_int (fun seed ->
      List.for_all
        (fun topo ->
          let _rng, net, requests, free = scenario seed topo in
          let tr = T1.build net ~requests ~free in
          graphs_equal (T1.graph tr) (old_t1_build net ~requests ~free))
        topologies)

let test_t2_matches_prerefactor =
  qtest "Transform2 graphs match the pre-refactor builder arc-for-arc"
    ~count:60 QCheck.small_int (fun seed ->
      List.for_all
        (fun topo ->
          let rng, net, requests, free = scenario seed topo in
          let requests = Workload.with_priorities rng ~levels:4 requests in
          let free = Workload.with_priorities rng ~levels:3 free in
          let tr = T2.build net ~requests ~free in
          graphs_equal (T2.graph tr) (old_t2_build net ~requests ~free))
        topologies)

let test_full_compile_covers_everything () =
  List.iter
    (fun (name, build) ->
      let net = build () in
      let ng = Netgraph.compile_full net in
      let c = Netgraph.graph ng in
      Alcotest.(check int)
        (name ^ ": every link compiled")
        (Network.n_links net)
        (Array.length (Netgraph.link_arcs ng));
      Alcotest.(check int)
        (name ^ ": node per endpoint, box, source and sink")
        (2 + Network.n_boxes net + Network.n_procs net + Network.n_res net)
        (Csr.node_count c);
      Alcotest.(check int)
        (name ^ ": arc per endpoint and link")
        (Network.n_procs net + Network.n_res net + Network.n_links net)
        (Csr.arc_count c);
      Alcotest.(check (result unit string))
        (name ^ ": CSR invariants") (Ok ()) (Csr.check_rev_pairing c);
      (* On an all-free network, a snapshot compile with every endpoint
         present yields the same numbering: arc for arc, the same ends. *)
      let snap =
        Netgraph.compile net
          ~requests:(List.init (Network.n_procs net) (fun p -> (p, 0)))
          ~free:(List.init (Network.n_res net) (fun r -> (r, 0)))
      in
      let g = Netgraph.graph snap in
      Alcotest.(check int) (name ^ ": same arc count as the snapshot")
        (Graph.arc_count g) (Csr.arc_count c);
      Graph.iter_forward_arcs g (fun a ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s: arc %d ends" name a)
            (Graph.src g a, Graph.dst g a)
            (Csr.src c a, Csr.dst c a));
      for p = 0 to Network.n_procs net - 1 do
        match Netgraph.sp_arc ng p with
        | Some a ->
          Alcotest.(check int) (name ^ ": sp arc starts off") 0
            (Csr.original_capacity c a);
          Alcotest.(check (option int)) (name ^ ": sp arc enters the processor")
            (Netgraph.proc_node ng p) (Some (Csr.dst c a))
        | None -> Alcotest.fail (name ^ ": missing sp arc")
      done;
      Array.iter
        (fun (a, l) ->
          Alcotest.(check int) (name ^ ": link arc capacity")
            (if Network.usable net l
                && Network.link_state net l = Network.Free
             then 1 else 0)
            (Csr.original_capacity c a))
        (Netgraph.link_arcs ng))
    topologies

let suite =
  [
    test_roundtrip;
    test_t1_matches_prerefactor;
    test_t2_matches_prerefactor;
    Alcotest.test_case "compile_full covers the whole topology" `Quick
      test_full_compile_covers_everything;
  ]
