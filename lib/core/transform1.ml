module Graph = Rsin_flow.Graph
module Network = Rsin_topology.Network

(* Transformation 1 is the zero-cost parameterization of the shared
   Netgraph compiler: no bypass node, every arc cost 0, max flow. *)

type t = { ng : Graph.t Netgraph.t; requested : int; free_count : int }

type outcome = {
  mapping : (int * int) list;
  circuits : (int * int list) list;
  allocated : int;
  requested : int;
  blocked : int;
  augmentations : int;
  arcs_scanned : int;
}

let dedup_sorted xs = List.sort_uniq compare xs

let build net ~requests ~free =
  let np = Network.n_procs net and nr = Network.n_res net in
  let requests = dedup_sorted requests and free = dedup_sorted free in
  List.iter
    (fun p ->
      if p < 0 || p >= np then invalid_arg "Transform1.build: bad processor")
    requests;
  List.iter
    (fun r ->
      if r < 0 || r >= nr then invalid_arg "Transform1.build: bad resource")
    free;
  let zero xs = List.map (fun i -> (i, 0)) xs in
  let ng = Netgraph.compile net ~requests:(zero requests) ~free:(zero free) in
  { ng; requested = List.length requests; free_count = List.length free }

let graph t = Netgraph.graph t.ng
let source t = Netgraph.source t.ng
let sink t = Netgraph.sink t.ng
let proc_node t p = Netgraph.proc_node t.ng p
let res_node t r = Netgraph.res_node t.ng r
let box_node t b = Netgraph.box_node t.ng b
let max_allocatable (t : t) = min t.requested t.free_count
let size t = Netgraph.size t.ng

let solve_with ?obs (module S : Rsin_flow.Solver.S) t =
  let g = graph t and source = source t and sink = sink t in
  Graph.reset_flows g;
  let _flow, (work : Rsin_flow.Solver.work) = S.max_flow ?obs g ~source ~sink in
  let augs = work.Rsin_flow.Solver.augmentations
  and scanned = work.Rsin_flow.Solver.arcs_scanned in
  (match Graph.check_conservation g ~source ~sink with
  | Ok () -> ()
  | Error msg -> failwith ("Transform1.solve: illegal flow: " ^ msg));
  let ex = Netgraph.extract t.ng in
  let allocated = List.length ex.Netgraph.mapping in
  let module Obs = Rsin_obs.Obs in
  Obs.count obs "transform1.solves" 1;
  Obs.count obs "transform1.allocated" allocated;
  Obs.count obs "transform1.blocked" (t.requested - allocated);
  { mapping = ex.Netgraph.mapping; circuits = ex.Netgraph.circuits;
    allocated; requested = t.requested;
    blocked = t.requested - allocated;
    augmentations = augs; arcs_scanned = scanned }

let solve ?obs t = solve_with ?obs (Rsin_flow.Solver.get "dinic") t

let bottleneck t =
  let cut =
    Rsin_flow.Edmonds_karp.min_cut (graph t) ~source:(source t) ~sink:(sink t)
  in
  Netgraph.cut_members t.ng cut

let schedule ?obs net ~requests ~free = solve ?obs (build net ~requests ~free)

let commit net outcome =
  List.map (fun (_p, links) -> Network.establish net links) outcome.circuits
