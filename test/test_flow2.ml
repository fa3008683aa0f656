(* Tests for the second wave of flow algorithms: push-relabel and
   Hopcroft-Karp, cross-validated against Dinic. *)

open Rsin_flow
module Prng = Rsin_util.Prng

let check = Alcotest.check
let qtest name ?(count = 150) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

(* same generator family as test_flow *)
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
              ignore (Graph.add_arc g ~src:u ~dst:v ~cap:(1 + Prng.int rng 3)))
          nodes.(l + 1))
      nodes.(l)
  done;
  Array.iter
    (fun n -> if Prng.bool rng then ignore (Graph.add_arc g ~src:n ~dst:t ~cap:(1 + Prng.int rng 3)))
    nodes.(layers - 1);
  for _ = 1 to extra do
    let l1 = Prng.int rng (layers - 1) in
    let l2 = l1 + 1 + Prng.int rng (layers - l1 - 1) in
    let u = nodes.(l1).(Prng.int rng width) and v = nodes.(l2).(Prng.int rng width) in
    ignore (Graph.add_arc g ~src:u ~dst:v ~cap:(1 + Prng.int rng 2))
  done;
  (g, s, t)

(* --- Push-relabel ---------------------------------------------------------- *)

let test_pr_known () =
  let g = Graph.create () in
  let s = Graph.add_node g and a = Graph.add_node g and b = Graph.add_node g
  and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:a ~cap:1000);
  ignore (Graph.add_arc g ~src:s ~dst:b ~cap:1000);
  ignore (Graph.add_arc g ~src:a ~dst:b ~cap:1);
  ignore (Graph.add_arc g ~src:a ~dst:t ~cap:1000);
  ignore (Graph.add_arc g ~src:b ~dst:t ~cap:1000);
  let f, st = Push_relabel.max_flow g ~source:s ~sink:t in
  check Alcotest.int "diamond" 2000 f;
  check Alcotest.bool "did some pushes" true (st.Push_relabel.pushes > 0)

let test_pr_disconnected () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  let orphan = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:orphan ~cap:5);
  let f, _ = Push_relabel.max_flow g ~source:s ~sink:t in
  check Alcotest.int "sink unreachable" 0 f;
  (* the preflow pushed into the orphan must have been returned *)
  check Alcotest.(result unit string) "flow legal again" (Ok ())
    (Graph.check_conservation g ~source:s ~sink:t)

let pr_equals_dinic =
  qtest "push-relabel = Dinic" ~count:200
    QCheck.(triple small_int (int_range 2 5) (int_range 1 5))
    (fun (seed, layers, width) ->
      let g1, s, t = random_graph seed ~layers ~width ~extra:4 in
      let g2 = Graph.copy g1 in
      let f1, _ = Dinic.max_flow g1 ~source:s ~sink:t in
      let f2, _ = Push_relabel.max_flow g2 ~source:s ~sink:t in
      f1 = f2)

let pr_leaves_legal_flow =
  qtest "push-relabel leaves a legal flow of the right value" ~count:200
    QCheck.(triple small_int (int_range 2 5) (int_range 1 5))
    (fun (seed, layers, width) ->
      let g, s, t = random_graph seed ~layers ~width ~extra:4 in
      let f, _ = Push_relabel.max_flow g ~source:s ~sink:t in
      Graph.check_conservation g ~source:s ~sink:t = Ok ()
      && Graph.flow_value g ~source:s = f)

(* --- Out-of-kilter with interior lower bounds -------------------------------- *)

(* Random circulation instances with lower bounds on interior arcs,
   cross-validated against an LP formulation of the same problem. This
   exercises the kilter machinery the s-t reductions never touch. *)
let ook_with_lower_bounds_matches_lp =
  qtest "out-of-kilter with lower bounds = LP" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let g = Graph.create () in
      let n = 4 + Prng.int rng 3 in
      let nodes = Array.init n (fun _ -> Graph.add_node g) in
      (* a ring guarantees circulations exist; chords add choice *)
      let arcs = ref [] in
      for i = 0 to n - 1 do
        let cap = 2 + Prng.int rng 3 in
        let low = Prng.int rng 2 in
        arcs :=
          ( Graph.add_arc g ~src:nodes.(i) ~dst:nodes.((i + 1) mod n) ~cap ~low
              ~cost:(Prng.int rng 7 - 2),
            low, cap )
          :: !arcs
      done;
      for _ = 1 to n do
        let a = Prng.int rng n and b = Prng.int rng n in
        if a <> b then begin
          let cap = 1 + Prng.int rng 3 in
          arcs :=
            ( Graph.add_arc g ~src:nodes.(a) ~dst:nodes.(b) ~cap ~low:0
                ~cost:(Prng.int rng 7 - 2),
              0, cap )
            :: !arcs
        end
      done;
      (* LP: min sum c x, conservation at every node, l <= x <= u *)
      let module Simplex = Rsin_lp.Simplex in
      let lp = Simplex.create () in
      let vars =
        List.map
          (fun (a, low, cap) ->
            let v = Simplex.add_var ~obj:(float_of_int (Graph.cost g a)) lp in
            Simplex.add_constraint lp [ (v, 1.) ] Simplex.Le (float_of_int cap);
            Simplex.add_constraint lp [ (v, 1.) ] Simplex.Ge (float_of_int low);
            (a, v))
          !arcs
      in
      for v = 0 to n - 1 do
        let terms =
          List.filter_map
            (fun (a, var) ->
              if Graph.src g a = nodes.(v) then Some (var, -1.)
              else if Graph.dst g a = nodes.(v) then Some (var, 1.)
              else None)
            vars
        in
        if terms <> [] then Simplex.add_constraint lp terms Simplex.Eq 0.
      done;
      let sol = Simplex.solve lp in
      match (Rsin_flow.Out_of_kilter.solve g, sol.Simplex.status) with
      | (Rsin_flow.Out_of_kilter.Optimal c, _), Simplex.Optimal ->
        abs_float (float_of_int c -. sol.Simplex.objective) < 1e-6
      | (Rsin_flow.Out_of_kilter.Infeasible, _), Simplex.Infeasible -> true
      | (Rsin_flow.Out_of_kilter.Infeasible, _), Simplex.Optimal -> false
      | (Rsin_flow.Out_of_kilter.Optimal _, _), Simplex.Infeasible -> false
      | _, Simplex.Unbounded -> false (* circulations are bounded *))

(* --- Hopcroft-Karp ----------------------------------------------------------- *)

let test_hk_known () =
  let t = Hopcroft_karp.create ~n_left:3 ~n_right:3 in
  (* perfect matching exists only via 0-1, 1-0, 2-2 *)
  Hopcroft_karp.add_edge t 0 1;
  Hopcroft_karp.add_edge t 1 0;
  Hopcroft_karp.add_edge t 1 1;
  Hopcroft_karp.add_edge t 2 2;
  check Alcotest.int "perfect" 3 (Hopcroft_karp.matching_size t);
  let m = Hopcroft_karp.max_matching t in
  check Alcotest.int "pairs" 3 (List.length m);
  (* matching is injective on both sides *)
  let ls = List.map fst m and rs = List.map snd m in
  check Alcotest.bool "left distinct" true
    (List.length (List.sort_uniq compare ls) = 3);
  check Alcotest.bool "right distinct" true
    (List.length (List.sort_uniq compare rs) = 3)

let test_hk_empty () =
  let t = Hopcroft_karp.create ~n_left:0 ~n_right:5 in
  check Alcotest.int "no left side" 0 (Hopcroft_karp.matching_size t);
  let t = Hopcroft_karp.create ~n_left:3 ~n_right:3 in
  check Alcotest.int "no edges" 0 (Hopcroft_karp.matching_size t)

let test_hk_bounds () =
  let t = Hopcroft_karp.create ~n_left:2 ~n_right:2 in
  Alcotest.check_raises "bad edge" (Invalid_argument "Hopcroft_karp.add_edge")
    (fun () -> Hopcroft_karp.add_edge t 2 0)

let hk_equals_flow =
  qtest "Hopcroft-Karp = max-flow matching" ~count:200
    QCheck.(pair small_int (pair (int_range 1 8) (int_range 1 8)))
    (fun (seed, (nl, nr)) ->
      let rng = Prng.create seed in
      let hk = Hopcroft_karp.create ~n_left:nl ~n_right:nr in
      let g = Graph.create () in
      let s = Graph.add_node g and t = Graph.add_node g in
      let left = Array.init nl (fun _ -> Graph.add_node g) in
      let right = Array.init nr (fun _ -> Graph.add_node g) in
      Array.iter (fun u -> ignore (Graph.add_arc g ~src:s ~dst:u ~cap:1)) left;
      Array.iter (fun v -> ignore (Graph.add_arc g ~src:v ~dst:t ~cap:1)) right;
      for u = 0 to nl - 1 do
        for v = 0 to nr - 1 do
          if Prng.bernoulli rng 0.3 then begin
            Hopcroft_karp.add_edge hk u v;
            ignore (Graph.add_arc g ~src:left.(u) ~dst:right.(v) ~cap:1)
          end
        done
      done;
      let f, _ = Dinic.max_flow g ~source:s ~sink:t in
      Hopcroft_karp.matching_size hk = f)

let hk_matching_valid =
  qtest "matchings use only existing edges, injectively" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let nl = 1 + Prng.int rng 8 and nr = 1 + Prng.int rng 8 in
      let hk = Hopcroft_karp.create ~n_left:nl ~n_right:nr in
      let edges = Hashtbl.create 16 in
      for u = 0 to nl - 1 do
        for v = 0 to nr - 1 do
          if Prng.bernoulli rng 0.4 then begin
            Hopcroft_karp.add_edge hk u v;
            Hashtbl.replace edges (u, v) ()
          end
        done
      done;
      let m = Hopcroft_karp.max_matching hk in
      List.for_all (fun e -> Hashtbl.mem edges e) m
      && List.length (List.sort_uniq compare (List.map fst m)) = List.length m
      && List.length (List.sort_uniq compare (List.map snd m)) = List.length m)

(* The crossbar MRSIN degenerates to bipartite matching: Transformation 1
   and Hopcroft-Karp must agree on allocation counts. *)
let crossbar_is_matching =
  qtest "crossbar scheduling = bipartite matching" ~count:100 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let np = 2 + Prng.int rng 6 and nr = 2 + Prng.int rng 6 in
      let net = Rsin_topology.Builders.crossbar ~n_procs:np ~n_res:nr in
      let requests =
        List.filter (fun _ -> Prng.bool rng) (List.init np Fun.id)
      in
      let free = List.filter (fun _ -> Prng.bool rng) (List.init nr Fun.id) in
      let o = Rsin_core.Transform1.schedule net ~requests ~free in
      let hk = Hopcroft_karp.create ~n_left:np ~n_right:nr in
      List.iter
        (fun p -> List.iter (fun r -> Hopcroft_karp.add_edge hk p r) free)
        requests;
      o.Rsin_core.Transform1.allocated = Hopcroft_karp.matching_size hk)

let suite =
  [
    Alcotest.test_case "push-relabel known" `Quick test_pr_known;
    Alcotest.test_case "push-relabel returns excess" `Quick test_pr_disconnected;
    pr_equals_dinic;
    pr_leaves_legal_flow;
    ook_with_lower_bounds_matches_lp;
    Alcotest.test_case "hopcroft-karp known" `Quick test_hk_known;
    Alcotest.test_case "hopcroft-karp empty" `Quick test_hk_empty;
    Alcotest.test_case "hopcroft-karp bounds" `Quick test_hk_bounds;
    hk_equals_flow;
    hk_matching_valid;
    crossbar_is_matching;
  ]
