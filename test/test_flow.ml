(* Tests for the flow library: residual graphs, Edmonds-Karp, Dinic,
   min-cost flow (SSP and out-of-kilter), decomposition and cuts. *)

open Rsin_flow
module Prng = Rsin_util.Prng

let check = Alcotest.check
let qtest name ?(count = 200) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

(* --- Graph primitives ---------------------------------------------------- *)

let test_graph_basics () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  let e = Graph.add_arc g ~src:a ~dst:b ~cap:3 ~cost:7 in
  check Alcotest.int "nodes" 2 (Graph.node_count g);
  check Alcotest.int "arcs" 1 (Graph.arc_count g);
  check Alcotest.int "src" a (Graph.src g e);
  check Alcotest.int "dst" b (Graph.dst g e);
  check Alcotest.int "cap" 3 (Graph.capacity g e);
  check Alcotest.int "cost" 7 (Graph.cost g e);
  check Alcotest.int "residual cost" (-7) (Graph.cost g (Graph.residual e));
  check Alcotest.bool "forward" true (Graph.is_forward e);
  check Alcotest.bool "residual not forward" false (Graph.is_forward (Graph.residual e));
  Graph.push g e 2;
  check Alcotest.int "flow" 2 (Graph.flow g e);
  check Alcotest.int "residual cap" 1 (Graph.capacity g e);
  check Alcotest.int "back cap" 2 (Graph.capacity g (Graph.residual e));
  Graph.push g (Graph.residual e) 1;
  check Alcotest.int "cancelled" 1 (Graph.flow g e);
  Graph.set_flow g e 3;
  check Alcotest.int "set_flow" 3 (Graph.flow g e);
  Graph.reset_flows g;
  check Alcotest.int "reset" 0 (Graph.flow g e)

let test_graph_invalid () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  Alcotest.check_raises "negative cap" (Invalid_argument "Graph.add_arc: bad capacity")
    (fun () -> ignore (Graph.add_arc g ~src:a ~dst:b ~cap:(-1)));
  let e = Graph.add_arc g ~src:a ~dst:b ~cap:1 in
  Alcotest.check_raises "over push" (Invalid_argument "Graph.push: over capacity")
    (fun () -> Graph.push g e 2)

let test_graph_total_cost_and_outflow () =
  let g = Graph.create () in
  let s = Graph.add_node g and m = Graph.add_node g and t = Graph.add_node g in
  let e1 = Graph.add_arc g ~src:s ~dst:m ~cap:2 ~cost:3 in
  let e2 = Graph.add_arc g ~src:m ~dst:t ~cap:2 ~cost:5 in
  Graph.push g e1 2;
  Graph.push g e2 2;
  check Alcotest.int "total cost" 16 (Graph.total_cost g);
  check Alcotest.int "source outflow" 2 (Graph.out_flow g s);
  check Alcotest.int "middle conserved" 0 (Graph.out_flow g m);
  check Alcotest.(result unit string) "conservation ok" (Ok ())
    (Graph.check_conservation g ~source:s ~sink:t)

let test_graph_copy_independent () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  let e = Graph.add_arc g ~src:s ~dst:t ~cap:4 in
  let h = Graph.copy g in
  Graph.push g e 4;
  check Alcotest.int "copy unchanged" 0 (Graph.flow h e)

let test_graph_set_capacity () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  let e = Graph.add_arc g ~src:a ~dst:b ~cap:2 in
  Graph.push g e 1;
  Graph.set_capacity g e 5;
  check Alcotest.int "original raised" 5 (Graph.original_capacity g e);
  check Alcotest.int "residual reflects flow" 4 (Graph.capacity g e);
  check Alcotest.int "flow untouched" 1 (Graph.flow g e);
  Graph.set_capacity g e 1;
  check Alcotest.int "lowered to flow" 0 (Graph.capacity g e);
  Alcotest.check_raises "below flow"
    (Invalid_argument "Graph.set_capacity: below current flow") (fun () ->
      Graph.set_capacity g e 0);
  Alcotest.check_raises "negative"
    (Invalid_argument "Graph.set_capacity: negative capacity") (fun () ->
      Graph.set_capacity g e (-1));
  Alcotest.check_raises "residual arc"
    (Invalid_argument "Graph.set_capacity: residual arc") (fun () ->
      Graph.set_capacity g (Graph.residual e) 3)

(* Freezing is a property of the engine's warm network, so it lives on
   the CSR form of the graph. *)
let test_graph_freeze_thaw () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  let e = Graph.add_arc g ~src:a ~dst:b ~cap:1 in
  let c = Csr.of_graph g in
  Alcotest.check_raises "freeze unsaturated"
    (Invalid_argument "Csr.freeze: arc not saturated") (fun () ->
      Csr.freeze c e);
  Csr.push c e 1;
  Csr.freeze c e;
  check Alcotest.bool "marked frozen" true (Csr.is_frozen c e);
  check Alcotest.int "no forward residual" 0 (Csr.capacity c e);
  check Alcotest.int "no backward residual" 0
    (Csr.capacity c (Graph.residual e));
  check Alcotest.int "flow survives freeze" 1 (Csr.flow c e);
  Csr.thaw c e;
  check Alcotest.bool "no longer frozen" false (Csr.is_frozen c e);
  check Alcotest.int "backward residual restored" 1
    (Csr.capacity c (Graph.residual e));
  check Alcotest.int "flow survives thaw" 1 (Csr.flow c e)

(* Warm start: solve, freeze the allocation, open more capacity and
   augment again — the total must match a from-scratch solve of the
   final graph, and the frozen flow must be untouched. *)
let test_dinic_augment_warm () =
  let build () =
    let g = Graph.create () in
    let s = Graph.add_node g and m = Graph.add_node g and t = Graph.add_node g in
    let sm = Graph.add_arc g ~src:s ~dst:m ~cap:1 in
    let mt = Graph.add_arc g ~src:m ~dst:t ~cap:1 in
    let sm2 = Graph.add_arc g ~src:s ~dst:m ~cap:0 in
    let mt2 = Graph.add_arc g ~src:m ~dst:t ~cap:0 in
    (g, s, t, sm, mt, sm2, mt2)
  in
  let g, s, t, sm, mt, sm2, mt2 = build () in
  let c = Csr.of_graph g in
  let v1 = Csr.dinic c ~source:s ~sink:t in
  check Alcotest.int "first phase" 1 v1;
  Csr.freeze c sm;
  Csr.freeze c mt;
  Csr.set_capacity c sm2 1;
  Csr.set_capacity c mt2 1;
  let v2 = Csr.dinic c ~source:s ~sink:t in
  check Alcotest.int "incremental phase adds only the delta" 1 v2;
  check Alcotest.int "frozen arc kept its flow" 1 (Csr.flow c sm);
  check Alcotest.int "new flow on the opened arcs" 1 (Csr.flow c sm2);
  (* From scratch on the same final capacities. *)
  let g', s', t', _, _, sm2', mt2' = build () in
  Graph.set_capacity g' sm2' 1;
  Graph.set_capacity g' mt2' 1;
  let total, _ = Dinic.max_flow g' ~source:s' ~sink:t' in
  check Alcotest.int "warm total equals cold total" total (v1 + v2)

(* --- Random graph generator for property tests --------------------------- *)

(* Layered random DAG resembling transformed MRSINs plus extra random
   arcs; capacities 1..3. Returns (graph, source, sink). *)
let random_graph seed ~layers ~width ~extra =
  let rng = Prng.create seed in
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  let nodes =
    Array.init layers (fun _ -> Array.init width (fun _ -> Graph.add_node g))
  in
  Array.iter
    (fun n -> if Prng.bool rng then ignore (Graph.add_arc g ~src:s ~dst:n ~cap:(1 + Prng.int rng 3)))
    nodes.(0);
  for l = 0 to layers - 2 do
    Array.iter
      (fun u ->
        Array.iter
          (fun v ->
            if Prng.bernoulli rng 0.4 then
              ignore (Graph.add_arc g ~src:u ~dst:v ~cap:(1 + Prng.int rng 3)
                        ~cost:(Prng.int rng 10)))
          nodes.(l + 1))
      nodes.(l)
  done;
  Array.iter
    (fun n -> if Prng.bool rng then ignore (Graph.add_arc g ~src:n ~dst:t ~cap:(1 + Prng.int rng 3)))
    nodes.(layers - 1);
  for _ = 1 to extra do
    (* skip-layer arcs keep it acyclic *)
    let l1 = Prng.int rng (layers - 1) in
    let l2 = l1 + 1 + Prng.int rng (layers - l1 - 1) in
    let u = nodes.(l1).(Prng.int rng width) and v = nodes.(l2).(Prng.int rng width) in
    ignore (Graph.add_arc g ~src:u ~dst:v ~cap:(1 + Prng.int rng 2) ~cost:(Prng.int rng 10))
  done;
  (g, s, t)

let mf_params = QCheck.(triple small_int (int_range 2 5) (int_range 1 5))

(* --- Max flow ------------------------------------------------------------- *)

let test_maxflow_known () =
  (* Classic diamond with a cross arc: max flow 2000+1... use CLRS-like
     instance with known value. *)
  let g = Graph.create () in
  let s = Graph.add_node g and a = Graph.add_node g and b = Graph.add_node g
  and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:a ~cap:1000);
  ignore (Graph.add_arc g ~src:s ~dst:b ~cap:1000);
  ignore (Graph.add_arc g ~src:a ~dst:b ~cap:1);
  ignore (Graph.add_arc g ~src:a ~dst:t ~cap:1000);
  ignore (Graph.add_arc g ~src:b ~dst:t ~cap:1000);
  let f, _ = Dinic.max_flow g ~source:s ~sink:t in
  check Alcotest.int "dinic diamond" 2000 f;
  Graph.reset_flows g;
  let f', _ = Edmonds_karp.max_flow g ~source:s ~sink:t in
  check Alcotest.int "ek diamond" 2000 f'

let test_maxflow_disconnected () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  let f, _ = Dinic.max_flow g ~source:s ~sink:t in
  check Alcotest.int "no arcs" 0 f

let test_maxflow_self_parallel () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:2);
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:3);
  let f, _ = Dinic.max_flow g ~source:s ~sink:t in
  check Alcotest.int "parallel arcs" 5 f

let dinic_equals_ek =
  qtest "Dinic = Edmonds-Karp on random DAGs" ~count:150 mf_params
    (fun (seed, layers, width) ->
      let g1, s, t = random_graph seed ~layers ~width ~extra:4 in
      let g2 = Graph.copy g1 in
      let f1, _ = Dinic.max_flow g1 ~source:s ~sink:t in
      let f2, _ = Edmonds_karp.max_flow g2 ~source:s ~sink:t in
      f1 = f2)

let maxflow_legal =
  qtest "max flow is a legal flow" ~count:150 mf_params
    (fun (seed, layers, width) ->
      let g, s, t = random_graph seed ~layers ~width ~extra:4 in
      let f, _ = Dinic.max_flow g ~source:s ~sink:t in
      Graph.check_conservation g ~source:s ~sink:t = Ok ()
      && Graph.flow_value g ~source:s = f)

let mincut_matches_maxflow =
  qtest "min cut capacity = max flow" ~count:150 mf_params
    (fun (seed, layers, width) ->
      let g, s, t = random_graph seed ~layers ~width ~extra:4 in
      let f, _ = Edmonds_karp.max_flow g ~source:s ~sink:t in
      let cut = Edmonds_karp.min_cut g ~source:s ~sink:t in
      let cap = List.fold_left (fun acc a -> acc + Graph.original_capacity g a) 0 cut in
      cap = f)

let test_augmenting_path_api () =
  let g = Graph.create () in
  let s = Graph.add_node g and m = Graph.add_node g and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:m ~cap:1);
  ignore (Graph.add_arc g ~src:m ~dst:t ~cap:1);
  (match Edmonds_karp.find_augmenting_path g ~source:s ~sink:t with
  | None -> Alcotest.fail "expected a path"
  | Some path ->
    check Alcotest.int "path length" 2 (List.length path);
    check Alcotest.int "augment pushes 1" 1 (Edmonds_karp.augment g path));
  check Alcotest.(option (list int)) "saturated" None
    (Edmonds_karp.find_augmenting_path g ~source:s ~sink:t)

(* Paper Fig. 3: augmentation through s-c-d-a-b-t cancels flow on (d,a)'s
   counterpart and yields two unit paths. *)
let test_fig3_augmentation () =
  let g = Graph.create () in
  let s = Graph.add_node g and a = Graph.add_node g and b = Graph.add_node g
  and c = Graph.add_node g and d = Graph.add_node g and t = Graph.add_node g in
  let sa = Graph.add_arc g ~src:s ~dst:a ~cap:1 in
  let _sc = Graph.add_arc g ~src:c ~dst:d ~cap:1 in
  ignore _sc;
  let ad = Graph.add_arc g ~src:a ~dst:d ~cap:1 in
  let ab = Graph.add_arc g ~src:a ~dst:b ~cap:1 in
  let sc = Graph.add_arc g ~src:s ~dst:c ~cap:1 in
  let dt = Graph.add_arc g ~src:d ~dst:t ~cap:1 in
  let bt = Graph.add_arc g ~src:b ~dst:t ~cap:1 in
  (* initial flow along s-a-d-t *)
  Graph.push g sa 1;
  Graph.push g ad 1;
  Graph.push g dt 1;
  check Alcotest.int "initial flow" 1 (Graph.flow_value g ~source:s);
  (* the augmenting path must route through the residual of (a,d) *)
  (match Edmonds_karp.find_augmenting_path g ~source:s ~sink:t with
  | None -> Alcotest.fail "augmenting path must exist"
  | Some path ->
    check Alcotest.bool "uses residual arc" true
      (List.mem (Graph.residual ad) path);
    ignore (Edmonds_karp.augment g path));
  check Alcotest.int "final flow" 2 (Graph.flow_value g ~source:s);
  check Alcotest.int "cancelled arc" 0 (Graph.flow g ad);
  check Alcotest.int "ab used" 1 (Graph.flow g ab);
  check Alcotest.int "sc used" 1 (Graph.flow g sc);
  check Alcotest.int "bt used" 1 (Graph.flow g bt)

(* --- Dinic layered API ----------------------------------------------------- *)

let test_layers () =
  let g = Graph.create () in
  let s = Graph.add_node g and a = Graph.add_node g and b = Graph.add_node g
  and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:a ~cap:1);
  ignore (Graph.add_arc g ~src:a ~dst:b ~cap:1);
  ignore (Graph.add_arc g ~src:b ~dst:t ~cap:1);
  (match Dinic.build_layers g ~source:s ~sink:t with
  | None -> Alcotest.fail "layers must exist"
  | Some l ->
    check Alcotest.int "source level" 0 (Dinic.level l s);
    check Alcotest.int "a level" 1 (Dinic.level l a);
    check Alcotest.int "sink level" 3 (Dinic.level l t);
    check Alcotest.int "num layers" 4 (Dinic.num_layers l);
    let added, _ = Dinic.blocking_flow g l ~source:s ~sink:t in
    check Alcotest.int "blocking flow" 1 added);
  check Alcotest.bool "saturated: no layers" true
    (Dinic.build_layers g ~source:s ~sink:t = None)

let test_unreachable_level () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  let orphan = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:1);
  match Dinic.build_layers g ~source:s ~sink:t with
  | None -> Alcotest.fail "layers must exist"
  | Some l -> check Alcotest.int "orphan level -1" (-1) (Dinic.level l orphan)

(* --- Min-cost flow ---------------------------------------------------------- *)

let test_mincost_known () =
  (* Two routes: cheap cap-1 (cost 1), expensive cap-2 (cost 5). Pushing 2
     units must use one of each: cost 1 + 5 = 6. *)
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:1 ~cost:1);
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:2 ~cost:5);
  let r = Mincost.min_cost_flow g ~source:s ~sink:t ~amount:2 in
  check Alcotest.int "flow" 2 r.Mincost.flow;
  check Alcotest.int "cost" 6 r.Mincost.cost

let test_mincost_partial () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:1 ~cost:1);
  let r = Mincost.min_cost_flow g ~source:s ~sink:t ~amount:5 in
  check Alcotest.int "only capacity-feasible flow" 1 r.Mincost.flow

let test_mincost_negative_costs () =
  (* A negative-cost arc on the only path; Bellman-Ford bootstrap needed. *)
  let g = Graph.create () in
  let s = Graph.add_node g and m = Graph.add_node g and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:m ~cap:1 ~cost:(-5));
  ignore (Graph.add_arc g ~src:m ~dst:t ~cap:1 ~cost:2);
  let r = Mincost.min_cost_flow g ~source:s ~sink:t ~amount:1 in
  check Alcotest.int "flow" 1 r.Mincost.flow;
  check Alcotest.int "cost" (-3) r.Mincost.cost

let test_mincost_negative_cycle_rejected () =
  (* a negative-total cycle in the initial network must be detected *)
  let g = Graph.create () in
  let s = Graph.add_node g and a = Graph.add_node g and b = Graph.add_node g
  and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:a ~cap:1 ~cost:0);
  ignore (Graph.add_arc g ~src:a ~dst:b ~cap:1 ~cost:(-5));
  ignore (Graph.add_arc g ~src:b ~dst:a ~cap:1 ~cost:2);
  ignore (Graph.add_arc g ~src:b ~dst:t ~cap:1 ~cost:0);
  Alcotest.check_raises "negative cycle"
    (Failure "Mincost: negative cycle in input network") (fun () ->
      ignore (Mincost.min_cost_flow g ~source:s ~sink:t ~amount:1))

let test_out_of_kilter_negative_costs () =
  (* negative-cost arc: the optimum saturates it *)
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:1 ~cost:(-4));
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:1 ~cost:3);
  ignore (Graph.add_arc g ~src:t ~dst:s ~cap:2 ~low:2);
  (match Out_of_kilter.solve g with
  | Out_of_kilter.Optimal c, _ -> check Alcotest.int "cost -1" (-1) c
  | Out_of_kilter.Infeasible, _ -> Alcotest.fail "feasible circulation exists")

let test_mincost_prefers_cheap () =
  let g = Graph.create () in
  let s = Graph.add_node g and a = Graph.add_node g and b = Graph.add_node g
  and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:a ~cap:1 ~cost:0);
  ignore (Graph.add_arc g ~src:s ~dst:b ~cap:1 ~cost:0);
  ignore (Graph.add_arc g ~src:a ~dst:t ~cap:1 ~cost:10);
  ignore (Graph.add_arc g ~src:b ~dst:t ~cap:1 ~cost:1);
  let r = Mincost.min_cost_flow g ~source:s ~sink:t ~amount:1 in
  check Alcotest.int "cheap route" 1 r.Mincost.cost

(* Reference: brute-force min cost of pushing [amount] units, by
   enumerating integral flows recursively on small graphs. *)
let brute_force_min_cost g0 ~source ~sink ~amount =
  let narcs = Graph.arc_count g0 in
  let caps = Array.init narcs (fun i -> Graph.original_capacity g0 (2 * i)) in
  let best = ref None in
  let flows = Array.make narcs 0 in
  (* enumerate all arc-flow vectors bounded by caps; check conservation *)
  let rec enum i =
    if i = narcs then begin
      let g = Graph.copy g0 in
      Graph.reset_flows g;
      (try
         Array.iteri (fun j f -> Graph.set_flow g (2 * j) f) flows;
         if
           Graph.check_conservation g ~source ~sink = Ok ()
           && Graph.flow_value g ~source = amount
         then
           let c = Graph.total_cost g in
           match !best with
           | None -> best := Some c
           | Some b -> if c < b then best := Some c
       with Invalid_argument _ -> ())
    end
    else
      for f = 0 to caps.(i) do
        flows.(i) <- f;
        enum (i + 1)
      done
  in
  enum 0;
  !best

let mincost_matches_bruteforce =
  qtest "SSP matches brute force on tiny graphs" ~count:60
    QCheck.(pair small_int (int_range 1 2))
    (fun (seed, amount) ->
      let rng = Prng.create seed in
      (* tiny graph: 2 middle nodes, arcs with caps 1, costs 0..4 *)
      let g = Graph.create () in
      let s = Graph.add_node g and a = Graph.add_node g
      and b = Graph.add_node g and t = Graph.add_node g in
      let maybe u v =
        if Prng.bernoulli rng 0.8 then
          ignore (Graph.add_arc g ~src:u ~dst:v ~cap:1 ~cost:(Prng.int rng 5))
      in
      maybe s a; maybe s b; maybe a b; maybe a t; maybe b t;
      let reference = brute_force_min_cost g ~source:s ~sink:t ~amount in
      let g' = Graph.copy g in
      let r = Mincost.min_cost_flow g' ~source:s ~sink:t ~amount in
      match reference with
      | None -> r.Mincost.flow < amount
      | Some c -> r.Mincost.flow = amount && r.Mincost.cost = c)

(* --- Out-of-kilter ----------------------------------------------------------- *)

let circulation_of_flow_instance g s t ~amount =
  ignore (Graph.add_arc g ~src:t ~dst:s ~cap:amount ~low:amount);
  g

let test_out_of_kilter_known () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:1 ~cost:1);
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:2 ~cost:5);
  let g = circulation_of_flow_instance g s t ~amount:2 in
  (match Out_of_kilter.solve g with
  | Out_of_kilter.Optimal c, _ -> check Alcotest.int "cost" 6 c
  | Out_of_kilter.Infeasible, _ -> Alcotest.fail "should be feasible")

let test_out_of_kilter_infeasible () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:1 ~cost:0);
  let g = circulation_of_flow_instance g s t ~amount:3 in
  match Out_of_kilter.solve g with
  | Out_of_kilter.Infeasible, _ -> ()
  | Out_of_kilter.Optimal _, _ -> Alcotest.fail "demand 3 over capacity 1"

let test_kilter_number () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  let e = Graph.add_arc g ~src:a ~dst:b ~cap:2 ~cost:1 ~low:1 in
  let pot = [| 0; 0 |] in
  (* rc = 1 > 0, x = 0 < low=1: kilter number 1 *)
  check Alcotest.int "below lower bound" 1 (Out_of_kilter.kilter_number g ~pot e);
  Graph.set_flow g e 1;
  check Alcotest.int "in kilter" 0 (Out_of_kilter.kilter_number g ~pot e);
  (* make rc negative: flow must sit at cap *)
  let pot = [| 0; 5 |] in
  check Alcotest.int "rc<0 wants cap" 1 (Out_of_kilter.kilter_number g ~pot e)

let ook_matches_ssp =
  qtest "out-of-kilter matches SSP on random DAGs" ~count:80
    QCheck.(pair small_int (int_range 1 3))
    (fun (seed, amount) ->
      let g, s, t = random_graph seed ~layers:3 ~width:3 ~extra:2 in
      let g_ssp = Graph.copy g in
      let r = Mincost.min_cost_flow g_ssp ~source:s ~sink:t ~amount in
      if r.Mincost.flow < amount then true (* circulation would be infeasible *)
      else begin
        let g_ook = Graph.copy g in
        let g_ook = circulation_of_flow_instance g_ook s t ~amount in
        match Out_of_kilter.solve g_ook with
        | Out_of_kilter.Optimal c, _ -> c = r.Mincost.cost
        | Out_of_kilter.Infeasible, _ -> false
      end)

(* --- Decomposition ------------------------------------------------------------ *)

let test_decompose_simple () =
  let g = Graph.create () in
  let s = Graph.add_node g and a = Graph.add_node g and b = Graph.add_node g
  and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:a ~cap:1);
  ignore (Graph.add_arc g ~src:a ~dst:t ~cap:1);
  ignore (Graph.add_arc g ~src:s ~dst:b ~cap:1);
  ignore (Graph.add_arc g ~src:b ~dst:t ~cap:1);
  let f, _ = Dinic.max_flow g ~source:s ~sink:t in
  check Alcotest.int "flow 2" 2 f;
  let paths = Decompose.unit_paths g ~source:s ~sink:t in
  check Alcotest.int "two paths" 2 (List.length paths);
  List.iter
    (fun p ->
      check Alcotest.int "path length" 3 (List.length p);
      check Alcotest.int "starts at s" s (List.hd p);
      check Alcotest.int "ends at t" t (List.nth p (List.length p - 1)))
    paths

let decompose_counts_flow =
  qtest "decomposition path count = flow value" ~count:100 mf_params
    (fun (seed, layers, width) ->
      let g, s, t = random_graph seed ~layers ~width ~extra:3 in
      let f, _ = Dinic.max_flow g ~source:s ~sink:t in
      let paths = Decompose.unit_paths g ~source:s ~sink:t in
      List.length paths = f
      && List.for_all
           (fun p -> List.hd p = s && List.nth p (List.length p - 1) = t)
           paths)

let test_path_arcs () =
  let g = Graph.create () in
  let s = Graph.add_node g and m = Graph.add_node g and t = Graph.add_node g in
  let e1 = Graph.add_arc g ~src:s ~dst:m ~cap:1 in
  let e2 = Graph.add_arc g ~src:m ~dst:t ~cap:1 in
  Graph.push g e1 1;
  Graph.push g e2 1;
  check Alcotest.(list int) "arcs recovered" [ e1; e2 ]
    (Decompose.path_arcs g [ s; m; t ]);
  Alcotest.check_raises "disconnected hop" Not_found (fun () ->
      ignore (Decompose.path_arcs g [ s; t ]))

let suite =
  [
    Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "graph invalid" `Quick test_graph_invalid;
    Alcotest.test_case "graph cost/outflow" `Quick test_graph_total_cost_and_outflow;
    Alcotest.test_case "graph copy" `Quick test_graph_copy_independent;
    Alcotest.test_case "graph set_capacity" `Quick test_graph_set_capacity;
    Alcotest.test_case "graph freeze/thaw" `Quick test_graph_freeze_thaw;
    Alcotest.test_case "dinic warm augment" `Quick test_dinic_augment_warm;
    Alcotest.test_case "maxflow known" `Quick test_maxflow_known;
    Alcotest.test_case "maxflow disconnected" `Quick test_maxflow_disconnected;
    Alcotest.test_case "maxflow parallel arcs" `Quick test_maxflow_self_parallel;
    dinic_equals_ek;
    maxflow_legal;
    mincut_matches_maxflow;
    Alcotest.test_case "augmenting path api" `Quick test_augmenting_path_api;
    Alcotest.test_case "fig3 augmentation" `Quick test_fig3_augmentation;
    Alcotest.test_case "dinic layers" `Quick test_layers;
    Alcotest.test_case "unreachable level" `Quick test_unreachable_level;
    Alcotest.test_case "mincost known" `Quick test_mincost_known;
    Alcotest.test_case "mincost partial" `Quick test_mincost_partial;
    Alcotest.test_case "mincost negative costs" `Quick test_mincost_negative_costs;
    Alcotest.test_case "mincost prefers cheap" `Quick test_mincost_prefers_cheap;
    Alcotest.test_case "mincost negative cycle rejected" `Quick
      test_mincost_negative_cycle_rejected;
    Alcotest.test_case "out-of-kilter negative costs" `Quick
      test_out_of_kilter_negative_costs;
    mincost_matches_bruteforce;
    Alcotest.test_case "out-of-kilter known" `Quick test_out_of_kilter_known;
    Alcotest.test_case "out-of-kilter infeasible" `Quick test_out_of_kilter_infeasible;
    Alcotest.test_case "kilter numbers" `Quick test_kilter_number;
    ook_matches_ssp;
    Alcotest.test_case "decompose simple" `Quick test_decompose_simple;
    decompose_counts_flow;
    Alcotest.test_case "path arcs" `Quick test_path_arcs;
  ]
