(* Flat CSR mirror of Graph's residual network. Two invariants drive
   everything here:

   - [pos]/[garc] are inverse permutations between graph arc indices
     (partner = a lxor 1) and CSR positions (partner = rev.(j)), so the
     public API can speak graph indices while the solvers walk
     cache-friendly row slices.
   - No function on a warm-cycle path allocates: loops are
     tail-recursive functions carrying ints (a [ref] would allocate a
     block), work counters live in the preallocated [stats] record, and
     all solver scratch is sized once in [layout]. *)

type stats = {
  mutable passes : int;
  mutable augmentations : int;
  mutable arcs_scanned : int;
}

type t = {
  n : int;                (* nodes *)
  pairs : int;            (* forward arcs *)
  m : int;                (* arc sides: 2 * pairs *)
  row_ptr : int array;    (* n+1: out-arc slice of node v is [row_ptr.(v), row_ptr.(v+1)) *)
  head : int array;       (* m, CSR order: destination node *)
  tail : int array;       (* m: source node *)
  rev : int array;        (* m: CSR position of the residual partner *)
  cap : int array;        (* m: residual capacity *)
  orig : int array;       (* pairs: original capacity *)
  frozen : bool array;    (* pairs: residual side pinned to 0 *)
  pos : int array;        (* graph arc -> CSR position *)
  garc : int array;       (* CSR position -> graph arc *)
  (* Dinic scratch *)
  level : int array;      (* n *)
  queue : int array;      (* n: BFS ring (each node enqueued at most once) *)
  cur : int array;        (* n: current-arc cursor into the row slice *)
  stack : int array;      (* n: DFS path, CSR arc per depth *)
  stats : stats;
}

(* Lays out [pairs] forward arcs and their partners in CSR order and
   preallocates all solver scratch. Forward arc [i] is graph arc [2i],
   from [src i] to [dst i]; its partner [2i+1] runs back. Each row is
   filled in ascending graph-arc order, so scanning a row from its end
   visits the arcs newest first — the order of Graph.iter_out. Residual
   capacities start at 0. *)
let layout n pairs ~src ~dst =
  let m = 2 * pairs in
  let tail_of a = if a land 1 = 0 then src (a lsr 1) else dst (a lsr 1) in
  let row_ptr = Array.make (n + 1) 0 in
  for a = 0 to m - 1 do
    let v = tail_of a in
    if v < 0 || v >= n then invalid_arg "Csr: arc endpoint out of range";
    row_ptr.(v + 1) <- row_ptr.(v + 1) + 1
  done;
  for v = 1 to n do
    row_ptr.(v) <- row_ptr.(v) + row_ptr.(v - 1)
  done;
  let fill = Array.sub row_ptr 0 (max n 1) in
  let pos = Array.make m (-1) in
  let garc = Array.make m (-1) in
  let head = Array.make m 0 and tail = Array.make m 0 in
  for a = 0 to m - 1 do
    let v = tail_of a in
    let j = fill.(v) in
    fill.(v) <- j + 1;
    pos.(a) <- j;
    garc.(j) <- a;
    tail.(j) <- v;
    head.(j) <- tail_of (a lxor 1)
  done;
  let rev = Array.make m 0 in
  for j = 0 to m - 1 do
    rev.(j) <- pos.(garc.(j) lxor 1)
  done;
  let na = max n 1 in
  { n; pairs; m; row_ptr; head; tail; rev;
    cap = Array.make m 0;
    orig = Array.make (max pairs 1) 0;
    frozen = Array.make (max pairs 1) false;
    pos; garc;
    level = Array.make na (-1);
    queue = Array.make na 0;
    cur = Array.make na 0;
    stack = Array.make na 0;
    stats = { passes = 0; augmentations = 0; arcs_scanned = 0 } }

let create ~nodes ~arcs ~src ~dst ~cap =
  if nodes < 0 || arcs < 0 then invalid_arg "Csr.create: negative size";
  let t = layout nodes arcs ~src ~dst in
  for i = 0 to arcs - 1 do
    let c = cap i in
    if c < 0 then invalid_arg "Csr.create: negative capacity";
    t.orig.(i) <- c;
    t.cap.(t.pos.(2 * i)) <- c
  done;
  t

let of_graph g =
  let t =
    layout (Graph.node_count g) (Graph.arc_count g)
      ~src:(fun i -> Graph.src g (2 * i))
      ~dst:(fun i -> Graph.dst g (2 * i))
  in
  for j = 0 to t.m - 1 do
    t.cap.(j) <- Graph.capacity g t.garc.(j)
  done;
  for i = 0 to t.pairs - 1 do
    t.orig.(i) <- Graph.original_capacity g (2 * i)
  done;
  t

let node_count t = t.n
let arc_count t = t.pairs
let last_stats t = t.stats

let check_arc t a =
  if a < 0 || a >= t.m then invalid_arg "Csr: bad arc"

let check_forward name a =
  if a land 1 <> 0 then invalid_arg (name ^ ": residual arc")

let capacity t a = check_arc t a; t.cap.(t.pos.(a))

let original_capacity t a =
  check_arc t a;
  check_forward "Csr.original_capacity" a;
  t.orig.(a lsr 1)

let flow t a =
  check_arc t a;
  check_forward "Csr.flow" a;
  t.orig.(a lsr 1) - t.cap.(t.pos.(a))

let push t a k =
  check_arc t a;
  let j = t.pos.(a) in
  if k < 0 || k > t.cap.(j) then invalid_arg "Csr.push: over capacity";
  t.cap.(j) <- t.cap.(j) - k;
  let r = t.rev.(j) in
  t.cap.(r) <- t.cap.(r) + k

let set_capacity t a c =
  check_arc t a;
  check_forward "Csr.set_capacity" a;
  if c < 0 then invalid_arg "Csr.set_capacity: negative capacity";
  let i = a lsr 1 in
  let j = t.pos.(a) in
  let f = t.orig.(i) - t.cap.(j) in
  if f > c then invalid_arg "Csr.set_capacity: below current flow";
  t.orig.(i) <- c;
  t.cap.(j) <- c - f

let set_flow t a f =
  check_arc t a;
  check_forward "Csr.set_flow" a;
  let i = a lsr 1 in
  if f < 0 || f > t.orig.(i) then invalid_arg "Csr.set_flow: out of range";
  t.cap.(t.pos.(a)) <- t.orig.(i) - f;
  t.cap.(t.pos.(a lxor 1)) <- f;
  (* Restoring the residual side is exactly un-freezing. *)
  t.frozen.(i) <- false

let freeze t a =
  check_arc t a;
  check_forward "Csr.freeze" a;
  if t.cap.(t.pos.(a)) <> 0 then invalid_arg "Csr.freeze: arc not saturated";
  t.cap.(t.pos.(a lxor 1)) <- 0;
  t.frozen.(a lsr 1) <- true

let thaw t a =
  check_arc t a;
  check_forward "Csr.thaw" a;
  let i = a lsr 1 in
  t.cap.(t.pos.(a lxor 1)) <- t.orig.(i) - t.cap.(t.pos.(a));
  t.frozen.(i) <- false

let is_frozen t a =
  check_arc t a;
  check_forward "Csr.is_frozen" a;
  t.frozen.(a lsr 1)

let src t a = check_arc t a; t.tail.(t.pos.(a))
let dst t a = check_arc t a; t.head.(t.pos.(a))

(* The CSR position of the first forward arc carrying unfrozen flow in
   [start .. j], scanning down: newest first, like Graph.iter_out. *)
let rec flow_pos_row t start j =
  if j < start then -1
  else
    let a = t.garc.(j) in
    if a land 1 = 0 && (not t.frozen.(a lsr 1)) && t.orig.(a lsr 1) > t.cap.(j)
    then j
    else flow_pos_row t start (j - 1)

let next_flow_arc t v =
  if v < 0 || v >= t.n then invalid_arg "Csr.next_flow_arc: bad node";
  let j = flow_pos_row t t.row_ptr.(v) (t.row_ptr.(v + 1) - 1) in
  if j < 0 then -1 else t.garc.(j)

let rec flow_value_row t stop j acc =
  if j >= stop then acc
  else begin
    let fj = if t.garc.(j) land 1 = 0 then j else t.rev.(j) in
    let f = t.orig.(t.garc.(j) lsr 1) - t.cap.(fj) in
    flow_value_row t stop (j + 1) (if j = fj then acc + f else acc - f)
  end

let flow_value t ~source =
  if source < 0 || source >= t.n then invalid_arg "Csr.flow_value: bad node";
  flow_value_row t t.row_ptr.(source + 1) t.row_ptr.(source) 0

let reset_stats t =
  t.stats.passes <- 0;
  t.stats.augmentations <- 0;
  t.stats.arcs_scanned <- 0

(* ------------------------------------------------------------------ *)
(* Dinic: layered BFS + current-arc blocking flow, all on the arrays.  *)

let rec bfs_row t v stop qt j =
  if j >= stop then qt
  else begin
    let w = t.head.(j) in
    if t.cap.(j) > 0 && t.level.(w) < 0 then begin
      t.level.(w) <- t.level.(v) + 1;
      t.queue.(qt) <- w;
      bfs_row t v stop (qt + 1) (j + 1)
    end
    else bfs_row t v stop qt (j + 1)
  end

let rec bfs_loop t qh qt =
  if qh < qt then begin
    let v = t.queue.(qh) in
    let qt = bfs_row t v t.row_ptr.(v + 1) qt t.row_ptr.(v) in
    bfs_loop t (qh + 1) qt
  end

let build_levels t ~source =
  Array.fill t.level 0 t.n (-1);
  t.level.(source) <- 0;
  t.queue.(0) <- source;
  bfs_loop t 0 1

(* Find the next admissible arc of [v] starting at cursor [j]; leaves
   the cursor on the arc found (it may still have capacity after the
   push) or at the end of the row. *)
let rec advance t v stop j =
  if j >= stop then begin
    t.cur.(v) <- j;
    -1
  end
  else begin
    t.stats.arcs_scanned <- t.stats.arcs_scanned + 1;
    if t.cap.(j) > 0 && t.level.(t.head.(j)) = t.level.(v) + 1 then begin
      t.cur.(v) <- j;
      j
    end
    else advance t v stop (j + 1)
  end

let rec path_min t top d acc =
  if d >= top then acc
  else
    let c = t.cap.(t.stack.(d)) in
    path_min t top (d + 1) (if c < acc then c else acc)

let rec path_push t top k d =
  if d < top then begin
    let j = t.stack.(d) in
    t.cap.(j) <- t.cap.(j) - k;
    let r = t.rev.(j) in
    t.cap.(r) <- t.cap.(r) + k;
    path_push t top k (d + 1)
  end

let rec first_saturated t top d =
  if d >= top then top
  else if t.cap.(t.stack.(d)) = 0 then d
  else first_saturated t top (d + 1)

(* One blocking flow over the level graph. [v] is the DFS head, the
   path source..v sits in stack.(0 .. top-1). *)
let rec block t ~source ~sink v top acc =
  if v = sink then begin
    let k = path_min t top 0 max_int in
    path_push t top k 0;
    t.stats.augmentations <- t.stats.augmentations + k;
    (* Retreat to the shallowest saturated arc: everything below it is
       still a usable prefix. Its tail's cursor stays put — the arc now
       has cap 0, so the next advance skips it. *)
    let d = first_saturated t top 0 in
    let v = if d = 0 then source else t.head.(t.stack.(d - 1)) in
    block t ~source ~sink v d (acc + k)
  end
  else begin
    let j = advance t v t.row_ptr.(v + 1) t.cur.(v) in
    if j >= 0 then begin
      t.stack.(top) <- j;
      block t ~source ~sink t.head.(j) (top + 1) acc
    end
    else if top = 0 then acc
    else begin
      (* Dead end: prune [v] from the level graph and step back past
         the arc that led here. *)
      t.level.(v) <- -1;
      let j = t.stack.(top - 1) in
      let u = t.tail.(j) in
      t.cur.(u) <- j + 1;
      block t ~source ~sink u (top - 1) acc
    end
  end

let rec dinic_phases t ~source ~sink total =
  build_levels t ~source;
  if t.level.(sink) < 0 then total
  else begin
    t.stats.passes <- t.stats.passes + 1;
    Array.blit t.row_ptr 0 t.cur 0 t.n;
    let added = block t ~source ~sink source 0 0 in
    if added > 0 then dinic_phases t ~source ~sink (total + added) else total
  end

let dinic t ~source ~sink =
  if source = sink then invalid_arg "Csr.dinic: source = sink";
  reset_stats t;
  dinic_phases t ~source ~sink 0

(* Every run ends on a full BFS that misses the sink, and nothing
   touches [level] after it, so it holds the residual-reachable set. *)
let source_side t v =
  if v < 0 || v >= t.n then invalid_arg "Csr.source_side: bad node";
  t.level.(v) >= 0

(* ------------------------------------------------------------------ *)
(* Path extraction and rollback.                                       *)

(* Freezes the arc at CSR position [j] and appends it to [arcs]. *)
let take t arcs fill j =
  if t.cap.(j) <> 0 then invalid_arg "Csr.freeze: arc not saturated";
  t.cap.(t.rev.(j)) <- 0;
  t.frozen.(t.garc.(j) lsr 1) <- true;
  arcs.(fill) <- t.garc.(j)

let rec walk_path t ~sink arcs v fill steps =
  if v = sink then fill
  else if steps > t.n then failwith "Csr.extract_paths: flow contains a cycle"
  else begin
    let j = flow_pos_row t t.row_ptr.(v) (t.row_ptr.(v + 1) - 1) in
    if j < 0 then failwith "Csr.extract_paths: stranded flow";
    take t arcs fill j;
    walk_path t ~sink arcs t.head.(j) (fill + 1) (steps + 1)
  end

(* One descending pass over the source row. A walk freezes only arcs of
   its own path and never adds flow, so every source arc above the
   cursor still carries no unfrozen flow: resuming below the arc just
   walked finds what a fresh scan from the row's end would. *)
let rec extract_loop t ~source ~sink arcs ends start j k fill =
  let j = flow_pos_row t start j in
  if j < 0 then k
  else begin
    take t arcs fill j;
    let fill = walk_path t ~sink arcs t.head.(j) (fill + 1) 1 in
    ends.(k) <- fill;
    extract_loop t ~source ~sink arcs ends start (j - 1) (k + 1) fill
  end

let extract_paths t ~source ~sink ~arcs ~ends =
  if source < 0 || source >= t.n || sink < 0 || sink >= t.n then
    invalid_arg "Csr.extract_paths: bad node";
  extract_loop t ~source ~sink arcs ends t.row_ptr.(source)
    (t.row_ptr.(source + 1) - 1)
    0 0

let rollback t =
  for i = 0 to t.pairs - 1 do
    if not t.frozen.(i) then begin
      t.cap.(t.pos.(2 * i)) <- t.orig.(i);
      t.cap.(t.pos.(2 * i + 1)) <- 0
    end
  done

(* ------------------------------------------------------------------ *)
(* Interop and validation (cold paths; may allocate freely).           *)

let write_flows t g =
  if Graph.node_count g <> t.n || Graph.arc_count g <> t.pairs then
    invalid_arg "Csr.write_flows: graph shape mismatch";
  for i = 0 to t.pairs - 1 do
    if not t.frozen.(i) then
      Graph.set_flow g (2 * i) (t.orig.(i) - t.cap.(t.pos.(2 * i)))
  done

let check_rev_pairing t =
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> problem := Some s) fmt in
  if Array.length t.pos < t.m || Array.length t.garc < t.m then
    fail "position maps shorter than arc count";
  for v = 0 to t.n - 1 do
    if t.row_ptr.(v) > t.row_ptr.(v + 1) then
      fail "row_ptr not monotone at node %d" v
  done;
  if t.m > 0 && (t.row_ptr.(0) <> 0 || t.row_ptr.(t.n) <> t.m) then
    fail "row_ptr does not cover the arc array";
  for j = 0 to t.m - 1 do
    let a = t.garc.(j) in
    if a < 0 || a >= t.m || t.pos.(a) <> j then
      fail "pos/garc not mutually inverse at CSR %d" j;
    let r = t.rev.(j) in
    if r = j || t.rev.(r) <> j then
      fail "rev not a fixed-point-free involution at CSR %d" j;
    if t.garc.(r) <> a lxor 1 then
      fail "rev disagrees with graph partner at arc %d" a;
    if t.head.(r) <> t.tail.(j) || t.tail.(r) <> t.head.(j) then
      fail "partner head/tail not mirrored at arc %d" a;
    if t.cap.(j) < 0 then fail "negative residual capacity at arc %d" a;
    let v = t.tail.(j) in
    if not (t.row_ptr.(v) <= j && j < t.row_ptr.(v + 1)) then
      fail "arc %d outside its tail's row slice" a
  done;
  for i = 0 to t.pairs - 1 do
    let cf = t.cap.(t.pos.(2 * i)) and cr = t.cap.(t.pos.(2 * i + 1)) in
    if t.frozen.(i) then begin
      if cr <> 0 then fail "frozen pair %d has residual capacity" i;
      if cf > t.orig.(i) then fail "frozen pair %d flow out of bounds" i
    end
    else if cf + cr <> t.orig.(i) then
      fail "pair %d capacities do not sum to original" i
  done;
  match !problem with None -> Ok () | Some msg -> Error msg

let check_conservation t ~source ~sink =
  let problem = ref None in
  for a = 0 to t.pairs - 1 do
    let f = flow t (2 * a) in
    if f < 0 || f > t.orig.(a) then
      problem :=
        Some
          (Printf.sprintf "arc %d: flow %d outside [0,%d]" (2 * a) f t.orig.(a))
  done;
  for v = 0 to t.n - 1 do
    if v <> source && v <> sink && flow_value t ~source:v <> 0 then
      problem :=
        Some (Printf.sprintf "node %d: net flow %d <> 0" v (flow_value t ~source:v))
  done;
  match !problem with None -> Ok () | Some msg -> Error msg
