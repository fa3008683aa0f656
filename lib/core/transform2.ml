module Graph = Rsin_flow.Graph
module Network = Rsin_topology.Network

(* Transformation 2 parameterizes the shared Netgraph compiler with the
   paper's costs — ymax - y_p on s->p, qmax - q_r on r->t — and the
   bypass node of the L rule; the graph construction itself lives in
   Netgraph. *)

type t = {
  ng : Graph.t Netgraph.t;
  requested : int;
  bypass_cost : int;
  mutable return_arc : int option;
      (* t->s arc added lazily for the out-of-kilter circulation *)
}

type solver = Ssp | Out_of_kilter

type outcome = {
  mapping : (int * int) list;
  circuits : (int * int list) list;
  bypassed : int list;
  allocated : int;
  requested : int;
  total_cost : int;
  allocation_cost : int;
  augmentations : int;
  arcs_scanned : int;
}

let check_unique what xs =
  let sorted = List.sort compare (List.map fst xs) in
  let rec dup = function
    | a :: (b :: _ as tl) -> if a = b then true else dup tl
    | _ -> false
  in
  if dup sorted then invalid_arg ("Transform2.build: duplicate " ^ what)

let build net ~requests ~free =
  let np = Network.n_procs net and nr = Network.n_res net in
  check_unique "processor" requests;
  check_unique "resource" free;
  List.iter
    (fun (p, y) ->
      if p < 0 || p >= np then invalid_arg "Transform2.build: bad processor";
      if y < 0 then invalid_arg "Transform2.build: negative priority")
    requests;
  List.iter
    (fun (r, q) ->
      if r < 0 || r >= nr then invalid_arg "Transform2.build: bad resource";
      if q < 0 then invalid_arg "Transform2.build: negative preference")
    free;
  let ymax = List.fold_left (fun m (_, y) -> max m y) 0 requests in
  let qmax = List.fold_left (fun m (_, q) -> max m q) 0 free in
  let bypass_cost = max (ymax + 1) (qmax + 1) in
  let ng =
    Netgraph.compile ~bypass_cost net
      ~requests:(List.map (fun (p, y) -> (p, ymax - y)) requests)
      ~free:(List.map (fun (r, q) -> (r, qmax - q)) free)
  in
  { ng; requested = List.length requests; bypass_cost; return_arc = None }

let graph t = Netgraph.graph t.ng
let source t = Netgraph.source t.ng
let sink t = Netgraph.sink t.ng
let size t = Netgraph.size t.ng

let bypass_node t =
  match Netgraph.bypass t.ng with
  | Some u -> u
  | None -> assert false (* build always compiles with a bypass *)

let solve ?obs ?(solver = Ssp) t =
  let g = graph t and source = source t and sink = sink t in
  Graph.reset_flows g;
  let augs, scanned =
    match solver with
    | Ssp ->
      let r =
        Rsin_flow.Mincost.min_cost_flow ?obs g ~source ~sink
          ~amount:t.requested
      in
      if r.flow <> t.requested then
        failwith "Transform2.solve: bypass should make any demand feasible";
      (r.stats.augmentations, r.stats.arcs_scanned)
    | Out_of_kilter ->
      (* Close the network into a circulation with a mandatory t->s arc. *)
      let return_arc =
        match t.return_arc with
        | Some a -> a
        | None ->
          let a =
            Graph.add_arc g ~src:sink ~dst:source ~cap:t.requested
              ~low:t.requested
          in
          t.return_arc <- Some a;
          a
      in
      let augs, scanned =
        match Rsin_flow.Out_of_kilter.solve ?obs g with
        | Rsin_flow.Out_of_kilter.Optimal _, st ->
          (st.augmentations, st.arcs_scanned)
        | Rsin_flow.Out_of_kilter.Infeasible, _ ->
          failwith "Transform2.solve: out-of-kilter reported infeasible"
      in
      (* Neutralize the return arc so decomposition sees an s-t flow. *)
      Graph.set_flow g return_arc 0;
      (augs, scanned)
  in
  (match Graph.check_conservation g ~source ~sink with
  | Ok () -> ()
  | Error msg -> failwith ("Transform2.solve: illegal flow: " ^ msg));
  let ex = Netgraph.extract t.ng in
  let module Obs = Rsin_obs.Obs in
  Obs.count obs "transform2.solves" 1;
  Obs.count obs "transform2.allocated" (List.length ex.Netgraph.mapping);
  Obs.count obs "transform2.bypassed" (List.length ex.Netgraph.bypassed);
  { mapping = ex.Netgraph.mapping;
    circuits = ex.Netgraph.circuits;
    bypassed = ex.Netgraph.bypassed;
    allocated = List.length ex.Netgraph.mapping;
    requested = t.requested;
    total_cost = Graph.total_cost g;
    allocation_cost = ex.Netgraph.allocation_cost;
    augmentations = augs;
    arcs_scanned = scanned }

let schedule ?obs ?solver net ~requests ~free =
  solve ?obs ?solver (build net ~requests ~free)

let commit net (outcome : outcome) =
  List.map (fun (_p, links) -> Network.establish net links) outcome.circuits
