module Graph = Rsin_flow.Graph
module Csr = Rsin_flow.Csr
module Network = Rsin_topology.Network

(* The one place in the repository where an MRSIN snapshot is scanned
   into a flow graph. Transformation 1, Transformation 2, the
   heterogeneous LP view and the online engine's persistent graph are
   all parameterizations of this compiler; none of them look at
   Network.link_src / Box_in themselves. *)

type 'g t = {
  net : Network.t;
  graph : 'g;
  nodes : int;
  arcs : int;                          (* forward arcs *)
  source : Graph.node;
  sink : Graph.node;
  bypass : Graph.node option;
  procs : int array;                   (* processor -> graph node or -1 *)
  ress : int array;                    (* resource  -> graph node or -1 *)
  boxes : int array;                   (* box       -> graph node *)
  sp : int array;                      (* processor -> s->p arc or -1 *)
  rt : int array;                      (* resource  -> r->t arc or -1 *)
  proc_of_node_ : int array;           (* graph node -> processor or -1 *)
  res_of_node_ : int array;            (* graph node -> resource or -1 *)
  arc_of_link_ : int array;            (* network link -> link arc or -1 *)
  link_of_arc_ : int array;            (* forward arc a/2 -> link or -1 *)
}

let node_of ~procs ~ress ~boxes = function
  | Network.Proc p -> procs.(p)
  | Network.Res r -> ress.(r)
  | Network.Box_in (b, _) | Network.Box_out (b, _) -> boxes.(b)

let free_and_usable net l =
  match Network.link_state net l with
  | Network.Free -> Network.usable net l
  | Network.Occupied _ -> false

let reverse_tables n ~procs ~ress =
  let proc_of = Array.make n (-1) and res_of = Array.make n (-1) in
  Array.iteri (fun p v -> if v >= 0 then proc_of.(v) <- p) procs;
  Array.iteri (fun r v -> if v >= 0 then res_of.(v) <- r) ress;
  (proc_of, res_of)

let check_unique what xs =
  let sorted = List.sort compare xs in
  let rec dup = function
    | a :: (b :: _ as tl) -> a = b || dup tl
    | _ -> false
  in
  if dup sorted then invalid_arg ("Netgraph.compile: duplicate " ^ what)

let compile ?bypass_cost net ~requests ~free =
  let np = Network.n_procs net and nr = Network.n_res net in
  check_unique "processor" (List.map fst requests);
  check_unique "resource" (List.map fst free);
  List.iter
    (fun (p, _) ->
      if p < 0 || p >= np then invalid_arg "Netgraph.compile: bad processor")
    requests;
  List.iter
    (fun (r, _) ->
      if r < 0 || r >= nr then invalid_arg "Netgraph.compile: bad resource")
    free;
  let g = Graph.create () in
  let source = Graph.add_node g and sink = Graph.add_node g in
  let bypass =
    match bypass_cost with Some _ -> Some (Graph.add_node g) | None -> None
  in
  let procs = Array.make np (-1) and ress = Array.make nr (-1) in
  let boxes = Array.init (Network.n_boxes net) (fun _ -> Graph.add_node g) in
  List.iter (fun (p, _) -> procs.(p) <- Graph.add_node g) requests;
  List.iter (fun (r, _) -> ress.(r) <- Graph.add_node g) free;
  let sp = Array.make np (-1) and rt = Array.make nr (-1) in
  (* S arcs (step T2/T3), with the per-request bypass escape when the
     compilation carries costs (Transformation 2's L rule). *)
  List.iter
    (fun (p, cost) ->
      sp.(p) <- Graph.add_arc g ~cost ~src:source ~dst:procs.(p) ~cap:1;
      match (bypass, bypass_cost) with
      | Some u, Some c ->
        ignore (Graph.add_arc g ~cost:c ~src:procs.(p) ~dst:u ~cap:1)
      | _ -> ())
    requests;
  (match (bypass, bypass_cost) with
  | Some u, Some c ->
    ignore (Graph.add_arc g ~cost:c ~src:u ~dst:sink ~cap:(List.length requests))
  | _ -> ());
  (* T arcs. *)
  List.iter
    (fun (r, cost) -> rt.(r) <- Graph.add_arc g ~cost ~src:ress.(r) ~dst:sink ~cap:1)
    free;
  (* B arcs: one per free, usable link whose endpoints survive (step T4
     drops occupied links, idle processors and busy resources). *)
  let arc_of_link_ = Array.make (Network.n_links net) (-1) in
  let node = node_of ~procs ~ress ~boxes in
  for l = 0 to Network.n_links net - 1 do
    if free_and_usable net l then begin
      let u = node (Network.link_src net l)
      and v = node (Network.link_dst net l) in
      if u >= 0 && v >= 0 then
        arc_of_link_.(l) <- Graph.add_arc g ~src:u ~dst:v ~cap:1
    end
  done;
  let link_of_arc_ = Array.make (Graph.arc_count g) (-1) in
  Array.iteri (fun l a -> if a >= 0 then link_of_arc_.(a / 2) <- l) arc_of_link_;
  let nodes = Graph.node_count g in
  let proc_of_node_, res_of_node_ = reverse_tables nodes ~procs ~ress in
  { net; graph = g; nodes; arcs = Graph.arc_count g; source; sink; bypass;
    procs; ress; boxes; sp; rt; proc_of_node_; res_of_node_; arc_of_link_;
    link_of_arc_ }

(* The full layout is fixed arithmetic, so the CSR is emitted directly:
   nodes source, sink, boxes, processors, resources; forward arcs s->p
   per processor, r->t per resource, then one per link in link-id order
   (every endpoint exists, so every link gets its arc). *)
let compile_full net =
  let np = Network.n_procs net and nr = Network.n_res net in
  let nb = Network.n_boxes net and nl = Network.n_links net in
  let source = 0 and sink = 1 in
  let boxes = Array.init nb (fun b -> 2 + b) in
  let procs = Array.init np (fun p -> 2 + nb + p) in
  let ress = Array.init nr (fun r -> 2 + nb + np + r) in
  let nodes = 2 + nb + np + nr and link0 = np + nr in
  let node = node_of ~procs ~ress ~boxes in
  let csr =
    Csr.create ~nodes ~arcs:(link0 + nl)
      ~src:(fun i ->
        if i < np then source
        else if i < link0 then ress.(i - np)
        else node (Network.link_src net (i - link0)))
      ~dst:(fun i ->
        if i < np then procs.(i)
        else if i < link0 then sink
        else node (Network.link_dst net (i - link0)))
      ~cap:(fun i ->
        if i >= link0 && free_and_usable net (i - link0) then 1 else 0)
  in
  let proc_of_node_, res_of_node_ = reverse_tables nodes ~procs ~ress in
  { net; graph = csr; nodes; arcs = link0 + nl; source; sink; bypass = None;
    procs; ress; boxes;
    sp = Array.init np (fun p -> 2 * p);
    rt = Array.init nr (fun r -> 2 * (np + r));
    proc_of_node_; res_of_node_;
    arc_of_link_ = Array.init nl (fun l -> 2 * (link0 + l));
    link_of_arc_ =
      Array.init (link0 + nl) (fun i -> if i < link0 then -1 else i - link0);
  }

(* --- accessors ---------------------------------------------------------- *)

let graph t = t.graph
let source t = t.source
let sink t = t.sink
let bypass t = t.bypass
let network t = t.net

let proc_node t p =
  if p < 0 || p >= Array.length t.procs then invalid_arg "Netgraph.proc_node";
  if t.procs.(p) >= 0 then Some t.procs.(p) else None

let res_node t r =
  if r < 0 || r >= Array.length t.ress then invalid_arg "Netgraph.res_node";
  if t.ress.(r) >= 0 then Some t.ress.(r) else None

let box_node t b =
  if b < 0 || b >= Array.length t.boxes then invalid_arg "Netgraph.box_node";
  t.boxes.(b)

let proc_of_node t v =
  if v < 0 || v >= Array.length t.proc_of_node_ then
    invalid_arg "Netgraph.proc_of_node";
  if t.proc_of_node_.(v) >= 0 then Some t.proc_of_node_.(v) else None

let res_of_node t v =
  if v < 0 || v >= Array.length t.res_of_node_ then
    invalid_arg "Netgraph.res_of_node";
  if t.res_of_node_.(v) >= 0 then Some t.res_of_node_.(v) else None

let sp_arc t p =
  if p < 0 || p >= Array.length t.sp then invalid_arg "Netgraph.sp_arc";
  if t.sp.(p) >= 0 then Some t.sp.(p) else None

let rt_arc t r =
  if r < 0 || r >= Array.length t.rt then invalid_arg "Netgraph.rt_arc";
  if t.rt.(r) >= 0 then Some t.rt.(r) else None

let link_of_arc t a =
  if a < 0 || a land 1 = 1 || a / 2 >= t.arcs then None
  else
    let l = t.link_of_arc_.(a / 2) in
    if l >= 0 then Some l else None

let arc_of_link t l =
  if l < 0 || l >= Array.length t.arc_of_link_ then None
  else
    let a = t.arc_of_link_.(l) in
    if a >= 0 then Some a else None

let link_arcs t =
  let acc = ref [] in
  for l = Array.length t.arc_of_link_ - 1 downto 0 do
    if t.arc_of_link_.(l) >= 0 then acc := (t.arc_of_link_.(l), l) :: !acc
  done;
  Array.of_list !acc

let size t = (t.nodes, t.arcs)

(* --- flow -> circuits / mapping extraction ------------------------------ *)

type extraction = {
  mapping : (int * int) list;
  circuits : (int * int list) list;
  bypassed : int list;
  allocation_cost : int;
}

let extract t =
  let g = t.graph in
  let paths = Rsin_flow.Decompose.unit_paths g ~source:t.source ~sink:t.sink in
  let mapping = ref [] and circuits = ref [] and bypassed = ref [] in
  let alloc_cost = ref 0 in
  List.iter
    (fun nodes ->
      match nodes with
      | _s :: p :: rest
        when (match t.bypass with Some u -> List.mem u rest | None -> false) ->
        bypassed := t.proc_of_node_.(p) :: !bypassed
      | _s :: (p :: _ as rest) ->
        let rec last2 = function
          | [ r; _t ] -> r
          | _ :: tl -> last2 tl
          | [] -> failwith "Netgraph.extract: short path"
        in
        let r = last2 rest in
        mapping := (t.proc_of_node_.(p), t.res_of_node_.(r)) :: !mapping;
        let arcs = Rsin_flow.Decompose.path_arcs g nodes in
        List.iter (fun a -> alloc_cost := !alloc_cost + Graph.cost g a) arcs;
        let links = List.filter_map (link_of_arc t) arcs in
        circuits := (t.proc_of_node_.(p), links) :: !circuits
      | _ -> failwith "Netgraph.extract: short path")
    paths;
  { mapping = List.rev !mapping;
    circuits = List.rev !circuits;
    bypassed = List.rev !bypassed;
    allocation_cost = !alloc_cost }

(* After a max flow, translate the saturated min-cut arcs back to
   network terms: contended links, or endpoint arcs whose own unit
   capacity binds. *)
let cut_members t cut =
  List.filter_map
    (fun a ->
      match link_of_arc t a with
      | Some l -> Some (`Link l)
      | None ->
        let s = Graph.src t.graph a and d = Graph.dst t.graph a in
        if s = t.source then
          Option.map (fun p -> `Proc p) (proc_of_node t d)
        else Option.map (fun r -> `Res r) (res_of_node t s))
    cut
