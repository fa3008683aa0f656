module Graph = Rsin_flow.Graph
module Csr = Rsin_flow.Csr
module Obs = Rsin_obs.Obs
module Netgraph = Rsin_core.Netgraph
module Network = Rsin_topology.Network

(* A persistent flow network over the *whole* topology, emitted once by
   Netgraph.compile_full straight into Csr arrays. Scheduling state is
   expressed purely through capacities (and, under the Mincost
   discipline, costs):

     s->p arc   cap 1 iff processor p has a pending request;
                cost -y_p (its priority) under Mincost, 0 under Maxflow
     r->t arc   cap 1 iff resource r is free
     link arc   cap 1 always; a link carried by an established circuit
                is saturated *and frozen* (residual capacity removed),
                so augmenting paths route around live circuits exactly
                as Transformation 1 step T4 excludes occupied links.

   Circuits that survive from earlier cycles therefore constitute a
   feasible flow of the current network, and a scheduling cycle is one
   warm augment on the residual network — never a rebuild: Csr.dinic
   under Maxflow, Csr.mincost under Mincost, neither of which allocates.
   The residual network reachable from s is isomorphic to the
   from-scratch transformation graph of the same snapshot (frozen arcs
   contribute no residual capacity in either direction; switched-off
   arcs carry cap 0). Under Maxflow that makes warm cycles allocate
   exactly as many requests as from-scratch Transformation 1; under
   Mincost the successive-shortest-path augment maximizes allocation
   first and then total served priority — the same optimum
   Transformation 2's bypass costs select, because every extraction
   freezes the new flow, so each cycle starts from zero unfrozen flow.
   The differential tests pin both equivalences cycle by cycle. *)

type discipline = Maxflow | Mincost

type t = {
  ng : Csr.t Netgraph.t;
  csr : Csr.t;                         (* = Netgraph.graph ng *)
  discipline : discipline;
  sp : Graph.arc array;                (* processor -> s->p arc *)
  rt : Graph.arc array;                (* resource -> r->t arc *)
  link_arcs : Graph.arc array;         (* network link -> link arc *)
  pair_link : int array;               (* forward arc a/2 -> link, or -1 *)
  node_proc : int array;               (* node -> processor, or -1 *)
  node_res : int array;                (* node -> resource, or -1 *)
  was_on : bool array;                 (* headroom scratch: s->p caps before *)
  (* A processor holds at most one committed circuit (its s->p arc is
     frozen while it does), and every circuit crosses one box per stage:
     s->p, stages+1 link arcs, r->t. So processor p's circuit lives in
     held.(p*width .. p*width+width-1), held.(p*width) = -1 when none. *)
  width : int;
  held : int array;
  (* Extraction scratch, reused by every solve: the paths' arcs back to
     back, where each ends, and the processors of the circuits found. *)
  path_arcs : int array;
  path_ends : int array;
  found : int array;
  mutable n_found : int;
  mutable last_work : int;
  mutable last_skipped : bool;
  mutable dirty : bool;
  mutable pending_ops : int;           (* capacity updates since last solve *)
  mutable total_work : int;            (* cumulative: updates + arcs scanned *)
}

let create ?(discipline = Maxflow) net =
  let ng = Netgraph.compile_full net in
  let csr = Netgraph.graph ng in
  let np = Network.n_procs net and nr = Network.n_res net in
  let nodes = Csr.node_count csr in
  let link_arcs =
    Array.init (Network.n_links net) (fun l ->
        Option.get (Netgraph.arc_of_link ng l))
  in
  let pair_link = Array.make (Csr.arc_count csr) (-1) in
  Array.iteri (fun l a -> pair_link.(a lsr 1) <- l) link_arcs;
  let of_node f = Array.init nodes (fun v -> Option.value ~default:(-1) (f ng v)) in
  let width = Network.stages net + 3 in
  { ng; csr; discipline;
    sp = Array.init np (fun p -> Option.get (Netgraph.sp_arc ng p));
    rt = Array.init nr (fun r -> Option.get (Netgraph.rt_arc ng r));
    link_arcs; pair_link;
    node_proc = of_node Netgraph.proc_of_node;
    node_res = of_node Netgraph.res_of_node;
    was_on = Array.make np false;
    width; held = Array.make (np * width) (-1);
    path_arcs = Array.make (Csr.arc_count csr) 0;
    path_ends = Array.make (np + 1) 0;
    found = Array.make np 0;
    n_found = 0; last_work = 0; last_skipped = false;
    dirty = false; pending_ops = 0; total_work = 0 }

let netgraph t = t.ng
let discipline t = t.discipline
let dirty t = t.dirty
let total_work t = t.total_work
let source t = Netgraph.source t.ng
let sink t = Netgraph.sink t.ng

let sp_arc t p =
  if p < 0 || p >= Array.length t.sp then invalid_arg "Incremental: bad processor";
  t.sp.(p)

let rt_arc t r =
  if r < 0 || r >= Array.length t.rt then invalid_arg "Incremental: bad resource";
  t.rt.(r)

let touch t ~enables =
  t.pending_ops <- t.pending_ops + 1;
  t.total_work <- t.total_work + 1;
  (* Only added capacity can create a new augmenting path; removing
     capacity from an arc with zero flow cannot make the proved-maximal
     flow non-maximal, and cost updates cannot change reachability, so
     both leave a clean state clean. *)
  if enables then t.dirty <- true

let set_switch t a on =
  let cap = if on then 1 else 0 in
  if Csr.original_capacity t.csr a <> cap then begin
    Csr.set_capacity t.csr a cap;
    touch t ~enables:on
  end

let set_requesting t ~priority p on =
  if priority < 0 then invalid_arg "Incremental.set_requesting: priority";
  let a = sp_arc t p in
  (match t.discipline with
  | Maxflow -> ()
  | Mincost ->
    (* Serving a high-priority request is a cheap path: cost -y_p. *)
    let cost = if on then -priority else 0 in
    if Csr.cost t.csr a <> cost then begin
      Csr.set_cost t.csr a cost;
      touch t ~enables:false
    end);
  set_switch t a on

let set_resource_free t r on = set_switch t (rt_arc t r) on

let set_link_usable t l on =
  if l < 0 || l >= Array.length t.link_arcs then
    invalid_arg "Incremental.set_link_usable: bad link";
  let a = t.link_arcs.(l) in
  if Csr.is_frozen t.csr a then
    invalid_arg
      "Incremental.set_link_usable: link carries a committed circuit \
       (release it first)";
  set_switch t a on

let requesting t p = Csr.original_capacity t.csr (sp_arc t p) = 1
let resource_free t r = Csr.original_capacity t.csr (rt_arc t r) = 1

(* --- Circuits ------------------------------------------------------------- *)

let check_proc t p =
  if p < 0 || p >= Array.length t.sp then invalid_arg "Incremental: bad processor"

let holds t p = check_proc t p; t.held.(p * t.width) >= 0

let check_holds t p what =
  if not (holds t p) then
    invalid_arg ("Incremental." ^ what ^ ": processor holds no circuit")

let circuit_res t p =
  check_holds t p "circuit_res";
  t.node_res.(Csr.src t.csr t.held.((p * t.width) + t.width - 1))

let circuit_links t p =
  check_holds t p "circuit_links";
  let base = p * t.width in
  let rec links k acc =
    if k = 0 then acc
    else links (k - 1) (t.pair_link.(t.held.(base + k) lsr 1) :: acc)
  in
  links (t.width - 2) []

let found t k =
  if k < 0 || k >= t.n_found then invalid_arg "Incremental.found: bad index";
  t.found.(k)

let last_work t = t.last_work
let last_skipped t = t.last_skipped

(* Files each path the last augmentation added under the processor it
   starts at. Csr.extract_paths walks the unfrozen flow from the source
   along arcs carrying it, freezing each arc crossed (unit capacities: a
   frozen arc is a decomposed one). Frozen flow belongs to complete
   committed s-t paths, so the unfrozen flow is itself a conserved
   integral flow and the walk cannot strand. It picks out-arcs newest
   first, as a first-fit walk over the adjacency graph would, so the
   circuits match the reference solvers' decomposition. *)
let rec file_paths t n k start =
  if k < n then begin
    let stop = t.path_ends.(k) in
    if stop - start <> t.width then
      failwith "Incremental.solve: circuit of unexpected length";
    let p = t.node_proc.(Csr.dst t.csr t.path_arcs.(start)) in
    if p < 0 then failwith "Incremental.solve: path does not start at a processor";
    Array.blit t.path_arcs start t.held (p * t.width) t.width;
    t.found.(k) <- p;
    file_paths t n (k + 1) stop
  end

let solve ?obs t =
  let updates = t.pending_ops in
  t.pending_ops <- 0;
  t.n_found <- 0;
  if not t.dirty then begin
    t.last_work <- updates;
    t.last_skipped <- true
  end
  else begin
    let c = t.csr and source = source t and sink = sink t in
    let scanned =
      match t.discipline with
      | Maxflow ->
        let _added = Csr.dinic c ~source ~sink in
        let s = Csr.last_stats c in
        Obs.count obs "flow.dinic_csr.runs" 1;
        Obs.count obs "flow.dinic_csr.phases" s.Csr.passes;
        Obs.count obs "flow.dinic_csr.augmentations" s.Csr.augmentations;
        Obs.count obs "flow.dinic_csr.arcs_scanned" s.Csr.arcs_scanned;
        s.Csr.arcs_scanned
      | Mincost ->
        let _added = Csr.mincost c ~source ~sink in
        let s = Csr.last_stats c in
        Obs.count obs "flow.mincost_csr.runs" 1;
        Obs.count obs "flow.mincost_csr.augmentations" s.Csr.augmentations;
        Obs.count obs "flow.mincost_csr.arcs_scanned" s.Csr.arcs_scanned;
        s.Csr.arcs_scanned
    in
    t.dirty <- false;
    t.total_work <- t.total_work + scanned;
    let n =
      Csr.extract_paths c ~source ~sink ~arcs:t.path_arcs ~ends:t.path_ends
    in
    file_paths t n 0 0;
    t.n_found <- n;
    t.last_work <- updates + scanned;
    t.last_skipped <- false
  end;
  t.n_found

let release t p =
  check_holds t p "release";
  let base = p * t.width in
  for k = base to base + t.width - 1 do
    let a = t.held.(k) in
    if not (Csr.is_frozen t.csr a) then
      invalid_arg "Incremental.release: circuit not committed";
    Csr.thaw t.csr a;
    Csr.set_flow t.csr a 0;
    t.pending_ops <- t.pending_ops + 1;
    t.total_work <- t.total_work + 1
  done;
  (* The request was served and the resource enters service: switch both
     endpoint arcs off until the engine re-enables them. *)
  Csr.set_capacity t.csr t.sp.(p) 0;
  if t.discipline = Mincost then Csr.set_cost t.csr t.sp.(p) 0;
  Csr.set_capacity t.csr t.held.(base + t.width - 1) 0;
  t.held.(base) <- -1;
  (* Freed links may unblock a request that was proved unroutable. *)
  t.dirty <- true

let pending_ops t = t.pending_ops

(* Borrowing what-if on the live network. Unfrozen flow is zero between
   solves (every solve freezes what it adds), so switching each
   uncommitted source arc to "processor idle" leaves exactly the
   residual network of Transformation 1 over requests = idle processors
   and free = free ports: frozen arcs (live circuits) and switched-off
   arcs (busy or down elements) carry no residual either way. Its max
   flow is the headroom, and the final Dinic BFS is the canonical cut
   Edmonds_karp.min_cut reads. The arcs are put back with raw Csr
   writes, leaving [dirty]/[pending_ops]/[total_work] alone, so the
   next real solve cannot tell a probe ran. *)
let rec cut_crosses_link t j =
  j < Array.length t.link_arcs
  &&
  let c = t.csr and a = t.link_arcs.(j) in
  (Csr.original_capacity c a > 0
  && (not (Csr.is_frozen c a))
  && Csr.source_side c (Csr.src c a)
  && not (Csr.source_side c (Csr.dst c a)))
  || cut_crosses_link t (j + 1)

let headroom t ~idle =
  let c = t.csr in
  for p = 0 to Array.length t.sp - 1 do
    let a = t.sp.(p) in
    if not (Csr.is_frozen c a) then begin
      t.was_on.(p) <- Csr.original_capacity c a > 0;
      Csr.set_capacity c a (if idle p then 1 else 0)
    end
  done;
  let value = Csr.dinic c ~source:(source t) ~sink:(sink t) in
  let fabric_limited = cut_crosses_link t 0 in
  Csr.rollback c;
  for p = 0 to Array.length t.sp - 1 do
    let a = t.sp.(p) in
    if not (Csr.is_frozen c a) then
      Csr.set_capacity c a (if t.was_on.(p) then 1 else 0)
  done;
  (value, fabric_limited)

(* Checkpoint restore: re-freeze a circuit that was committed before the
   snapshot into a freshly compiled warm graph. Equivalent to the state
   a solve left behind — unit flow on every path arc, residual
   capacity removed — but driven from the serialized link list instead of
   a solver run. Deliberately does not touch [dirty]/[pending_ops]/
   [total_work]: the snapshot carries those verbatim and the caller
   reinstates them with {!restore_flags}, so the restored engine's
   skip/work trajectory matches the uninterrupted run exactly. *)
let restore_circuit t ~proc ~res ~links =
  let arc_of_link l =
    if l < 0 || l >= Array.length t.link_arcs then
      invalid_arg "Incremental.restore_circuit: bad link";
    t.link_arcs.(l)
  in
  let arcs = (sp_arc t proc :: List.map arc_of_link links) @ [ rt_arc t res ] in
  if List.length arcs <> t.width then
    invalid_arg "Incremental.restore_circuit: circuit of unexpected length";
  List.iteri
    (fun k a ->
      if Csr.is_frozen t.csr a then
        invalid_arg "Incremental.restore_circuit: arc already frozen";
      Csr.set_capacity t.csr a 1;
      Csr.set_flow t.csr a 1;
      Csr.freeze t.csr a;
      t.held.((proc * t.width) + k) <- a)
    arcs

let restore_flags t ~dirty ~pending_ops ~total_work =
  if pending_ops < 0 || total_work < 0 then
    invalid_arg "Incremental.restore_flags: negative counter";
  t.dirty <- dirty;
  t.pending_ops <- pending_ops;
  t.total_work <- total_work

let check t = Csr.check_conservation t.csr ~source:(source t) ~sink:(sink t)
