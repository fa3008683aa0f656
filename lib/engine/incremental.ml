module Graph = Rsin_flow.Graph
module Csr = Rsin_flow.Csr
module Obs = Rsin_obs.Obs
module Netgraph = Rsin_core.Netgraph
module Network = Rsin_topology.Network

(* A persistent flow network over the *whole* topology, emitted once by
   Netgraph.compile_full straight into Csr arrays. Scheduling state is
   expressed purely through capacities:

     s->p arc   cap 1 iff processor p has a pending request
     r->t arc   cap 1 iff resource r is free
     link arc   cap 1 always; a link carried by an established circuit
                is saturated *and frozen* (residual capacity removed),
                so augmenting paths route around live circuits exactly
                as Transformation 1 step T4 excludes occupied links.

   No arc carries a cost. Circuits that survive from earlier cycles
   therefore constitute a feasible flow of the current network, and a
   scheduling cycle is a warm augment on the residual network — never a
   rebuild. The residual network reachable from s is isomorphic to the
   from-scratch transformation graph of the same snapshot (frozen arcs
   contribute no residual capacity in either direction; switched-off
   arcs carry cap 0), and every extraction freezes the new flow, so
   each cycle starts from zero unfrozen flow.

   Under Maxflow a cycle is one Csr.dinic, which allocates exactly as
   many requests as from-scratch Transformation 1. Under Priority it is
   the greedy algorithm of a matroid: the sets of pending processors
   that edge-disjoint circuits can serve at once are the independent
   sets of a gammoid (Perfect 1968, Mason 1972), so taking priority
   classes from highest to lowest and extending a maximum flow one
   class at a time yields a basis of maximum total priority
   (Rado–Edmonds). On the network that is: switch the pending source
   arcs off, then switch each class on and run Csr.dinic again. An
   augmenting path never enters the source, so a routed processor's
   source arc stays saturated and a later class cannot un-route it. The
   final flow is maximum and, among maximum flows, serves the most
   total priority — the two objective values Transformation 2's bypass
   costs select. The argument needs the r->t arcs to carry no cost
   (resource preferences would break it); this network has none. The
   differential tests pin both equivalences cycle by cycle. *)

type discipline = Maxflow | Priority

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
  prio : int array;                    (* processor -> its request's priority *)
  (* Priority solve scratch: the pending, uncommitted processors,
     highest priority first. *)
  order : int array;
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
  mutable last_fabric_limited : bool;  (* the last headroom probe's cut *)
  (* The last solve's Dinic runs (one under Maxflow, one per priority
     class under Priority) and their summed stats. *)
  mutable runs : int;
  mutable phases : int;
  mutable augmentations : int;
  mutable scanned : int;
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
    prio = Array.make np 0;
    order = Array.make np 0;
    width; held = Array.make (np * width) (-1);
    path_arcs = Array.make (Csr.arc_count csr) 0;
    path_ends = Array.make (np + 1) 0;
    found = Array.make np 0;
    n_found = 0; last_work = 0; last_skipped = false; last_fabric_limited = false;
    runs = 0; phases = 0; augmentations = 0; scanned = 0;
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
     flow non-maximal, so it leaves a clean state clean. *)
  if enables then t.dirty <- true

let set_switch t a on =
  let cap = if on then 1 else 0 in
  if Csr.original_capacity t.csr a <> cap then begin
    Csr.set_capacity t.csr a cap;
    touch t ~enables:on
  end

(* A priority is bookkeeping, not capacity: a new one for a request
   that stays pending cannot create an augmenting path, so it neither
   counts as an update nor dirties a clean state. *)
let set_requesting t ~priority p on =
  if priority < 0 then invalid_arg "Incremental.set_requesting: priority";
  let a = sp_arc t p in
  t.prio.(p) <- priority;
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
let last_fabric_limited t = t.last_fabric_limited

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

(* One Csr.dinic on the live network, its stats added to the solve's. *)
let run_dinic t =
  let added = Csr.dinic t.csr ~source:(source t) ~sink:(sink t) in
  let s = Csr.last_stats t.csr in
  t.runs <- t.runs + 1;
  t.phases <- t.phases + s.Csr.passes;
  t.augmentations <- t.augmentations + s.Csr.augmentations;
  t.scanned <- t.scanned + s.Csr.arcs_scanned;
  added

(* --- The Priority solve: one class at a time ------------------------------- *)

(* Switches off the source arcs of the uncommitted processors that
   request, collecting them in [order] from [k]; returns their count. *)
let rec take_pending t p k =
  if p >= Array.length t.sp then k
  else
    let a = t.sp.(p) in
    if Csr.original_capacity t.csr a > 0 && not (Csr.is_frozen t.csr a) then begin
      Csr.set_capacity t.csr a 0;
      t.order.(k) <- p;
      take_pending t (p + 1) (k + 1)
    end
    else take_pending t (p + 1) k

(* Heapsort of order.(0 .. n-1) by priority, highest first: a min-heap
   whose minimum is swapped to the back each round. In place, O(n log
   n). Ties land in any order: a class is switched on whole, so the
   order inside it cannot reach the flow. *)
let rec sift t n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let o = t.order and y = t.prio in
    let r = l + 1 in
    let c = if r < n && y.(o.(r)) < y.(o.(l)) then r else l in
    if y.(o.(c)) < y.(o.(i)) then begin
      let v = o.(i) in
      o.(i) <- o.(c);
      o.(c) <- v;
      sift t n c
    end
  end

let sort_by_priority t n =
  for i = (n / 2) - 1 downto 0 do
    sift t n i
  done;
  for last = n - 1 downto 1 do
    let o = t.order in
    let v = o.(0) in
    o.(0) <- o.(last);
    o.(last) <- v;
    sift t last 0
  done

(* The free resources: switched-on r->t arcs no circuit holds. No flow
   is unfrozen between solves, so those are the arcs with residual
   capacity, and their count bounds what any flow can add. *)
let rec free_sinks t r k =
  if r >= Array.length t.rt then k
  else free_sinks t (r + 1) (if Csr.capacity t.csr t.rt.(r) > 0 then k + 1 else k)

(* Switches on order.(i ..) while the priority is [y]; returns the
   index past the class. *)
let rec switch_on_class t n y i =
  if i < n && t.prio.(t.order.(i)) = y then begin
    Csr.set_capacity t.csr t.sp.(t.order.(i)) 1;
    switch_on_class t n y (i + 1)
  end
  else i

(* Extends the flow one class at a time from order.(i); once it fills
   every free resource, the remaining classes are only switched back
   on. *)
let rec class_runs t n bound i flow =
  if i < n then begin
    let j = switch_on_class t n t.prio.(t.order.(i)) i in
    class_runs t n bound j (if flow >= bound then flow else flow + run_dinic t)
  end

(* Raw capacity writes, as [headroom] makes: every pending source arc
   ends switched on again, so the class runs leave no update behind. *)
let solve_priority t =
  let n = take_pending t 0 0 in
  sort_by_priority t n;
  class_runs t n (free_sinks t 0 0) 0 0

let solve ?obs t =
  let updates = t.pending_ops in
  t.pending_ops <- 0;
  t.n_found <- 0;
  if not t.dirty then begin
    t.last_work <- updates;
    t.last_skipped <- true
  end
  else begin
    t.runs <- 0;
    t.phases <- 0;
    t.augmentations <- 0;
    t.scanned <- 0;
    (match t.discipline with
    | Maxflow -> ignore (run_dinic t)
    | Priority -> solve_priority t);
    Obs.count obs "flow.dinic_csr.runs" t.runs;
    Obs.count obs "flow.dinic_csr.phases" t.phases;
    Obs.count obs "flow.dinic_csr.augmentations" t.augmentations;
    Obs.count obs "flow.dinic_csr.arcs_scanned" t.scanned;
    t.dirty <- false;
    t.total_work <- t.total_work + t.scanned;
    let n =
      Csr.extract_paths t.csr ~source:(source t) ~sink:(sink t)
        ~arcs:t.path_arcs ~ends:t.path_ends
    in
    file_paths t n 0 0;
    t.n_found <- n;
    t.last_work <- updates + t.scanned;
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
   next real solve cannot tell a probe ran. The cut's answer is kept in
   a field rather than returned in a pair, so a probe allocates
   nothing. *)
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
  t.last_fabric_limited <- cut_crosses_link t 0;
  Csr.rollback c;
  for p = 0 to Array.length t.sp - 1 do
    let a = t.sp.(p) in
    if not (Csr.is_frozen c a) then
      Csr.set_capacity c a (if t.was_on.(p) then 1 else 0)
  done;
  value

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
