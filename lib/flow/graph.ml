module Vec = Rsin_util.Vec

type node = int
type arc = int

(* Arc storage: arc i and arc (i lxor 1) are residual partners. Even
   indices are the forward arcs. [cap] holds *residual* capacity, so
   flow(forward a) = orig_cap(a/2) - cap(a). Adjacency is a classic
   first/next linked list over arc indices. *)
type t = {
  mutable n : int;
  first : int Vec.t;     (* per node: first outgoing arc or -1 *)
  next : int Vec.t;      (* per arc: next outgoing arc of same src or -1 *)
  head : int Vec.t;      (* per arc: destination node *)
  tail : int Vec.t;      (* per arc: source node *)
  cap : int Vec.t;       (* per arc: residual capacity *)
  cost_ : int Vec.t;     (* per arc: unit cost (negated on residual) *)
  orig : int Vec.t;      (* per forward arc (index a/2): original capacity *)
  low : int Vec.t;       (* per forward arc (index a/2): lower bound *)
}

let create () =
  { n = 0; first = Vec.create (); next = Vec.create (); head = Vec.create ();
    tail = Vec.create (); cap = Vec.create (); cost_ = Vec.create ();
    orig = Vec.create (); low = Vec.create () }

let add_node g =
  let id = g.n in
  g.n <- g.n + 1;
  Vec.push g.first (-1);
  id

let add_nodes g k =
  if k <= 0 then invalid_arg "Graph.add_nodes";
  let fst_id = add_node g in
  for _ = 2 to k do
    ignore (add_node g)
  done;
  fst_id

let node_count g = g.n
let arc_count g = Vec.length g.head / 2

let check_node g v = if v < 0 || v >= g.n then invalid_arg "Graph: bad node"

let push_raw g ~src ~dst ~cap ~cost =
  let a = Vec.length g.head in
  Vec.push g.head dst;
  Vec.push g.tail src;
  Vec.push g.cap cap;
  Vec.push g.cost_ cost;
  Vec.push g.next (Vec.get g.first src);
  Vec.set g.first src a;
  a

let add_arc ?(cost = 0) ?(low = 0) g ~src ~dst ~cap =
  check_node g src;
  check_node g dst;
  if cap < 0 || low < 0 || low > cap then invalid_arg "Graph.add_arc: bad capacity";
  let a = push_raw g ~src ~dst ~cap ~cost in
  let _ = push_raw g ~src:dst ~dst:src ~cap:0 ~cost:(-cost) in
  Vec.push g.orig cap;
  Vec.push g.low low;
  a

let check_arc g a =
  if a < 0 || a >= Vec.length g.head then invalid_arg "Graph: bad arc"

let src g a = check_arc g a; Vec.get g.tail a
let dst g a = check_arc g a; Vec.get g.head a
let residual a = a lxor 1
let is_forward a = a land 1 = 0
let capacity g a = check_arc g a; Vec.get g.cap a

let original_capacity g a =
  check_arc g a;
  if not (is_forward a) then invalid_arg "Graph.original_capacity: residual arc";
  Vec.get g.orig (a / 2)

let lower_bound g a =
  check_arc g a;
  if not (is_forward a) then invalid_arg "Graph.lower_bound: residual arc";
  Vec.get g.low (a / 2)

let cost g a = check_arc g a; Vec.get g.cost_ a

let flow g a =
  check_arc g a;
  if not (is_forward a) then invalid_arg "Graph.flow: residual arc";
  Vec.get g.orig (a / 2) - Vec.get g.cap a

let push g a k =
  check_arc g a;
  if k < 0 || k > Vec.get g.cap a then invalid_arg "Graph.push: over capacity";
  Vec.set g.cap a (Vec.get g.cap a - k);
  let r = residual a in
  Vec.set g.cap r (Vec.get g.cap r + k)

let set_flow g a f =
  check_arc g a;
  if not (is_forward a) then invalid_arg "Graph.set_flow: residual arc";
  let c = Vec.get g.orig (a / 2) in
  if f < 0 || f > c then invalid_arg "Graph.set_flow: out of range";
  Vec.set g.cap a (c - f);
  Vec.set g.cap (residual a) f

let set_capacity g a c =
  check_arc g a;
  if not (is_forward a) then invalid_arg "Graph.set_capacity: residual arc";
  if c < 0 then invalid_arg "Graph.set_capacity: negative capacity";
  let f = flow g a in
  if f > c then invalid_arg "Graph.set_capacity: below current flow";
  Vec.set g.orig (a / 2) c;
  Vec.set g.cap a (c - f)

let set_cost g a c =
  check_arc g a;
  if not (is_forward a) then invalid_arg "Graph.set_cost: residual arc";
  Vec.set g.cost_ a c;
  Vec.set g.cost_ (residual a) (-c)

let reset_flows g =
  for i = 0 to arc_count g - 1 do
    let a = 2 * i in
    Vec.set g.cap a (Vec.get g.orig i);
    Vec.set g.cap (a + 1) 0
  done

let iter_out g v f =
  check_node g v;
  let a = ref (Vec.get g.first v) in
  while !a <> -1 do
    f !a;
    a := Vec.get g.next !a
  done

let fold_out g v ~init ~f =
  let acc = ref init in
  iter_out g v (fun a -> acc := f !acc a);
  !acc

let iter_forward_arcs g f =
  for i = 0 to arc_count g - 1 do
    f (2 * i)
  done

let out_degree g v = fold_out g v ~init:0 ~f:(fun acc _ -> acc + 1)

let out_flow g v =
  fold_out g v ~init:0 ~f:(fun acc a ->
      if is_forward a then acc + flow g a else acc - flow g (residual a))

let flow_value g ~source = out_flow g source

let check_conservation g ~source ~sink =
  let problem = ref None in
  for i = 0 to arc_count g - 1 do
    let a = 2 * i in
    let f = flow g a in
    if f < 0 || f > original_capacity g a then
      problem := Some (Printf.sprintf "arc %d: flow %d outside [0,%d]" a f
                         (original_capacity g a))
  done;
  for v = 0 to g.n - 1 do
    if v <> source && v <> sink && out_flow g v <> 0 then
      problem := Some (Printf.sprintf "node %d: net flow %d <> 0" v (out_flow g v))
  done;
  match !problem with None -> Ok () | Some msg -> Error msg

let total_cost g =
  let acc = ref 0 in
  iter_forward_arcs g (fun a -> acc := !acc + (cost g a * flow g a));
  !acc

let copy g =
  { n = g.n;
    first = Vec.copy g.first;
    next = Vec.copy g.next;
    head = Vec.copy g.head;
    tail = Vec.copy g.tail;
    cap = Vec.copy g.cap;
    cost_ = Vec.copy g.cost_;
    orig = Vec.copy g.orig;
    low = Vec.copy g.low }

let pp fmt g =
  Format.fprintf fmt "graph: %d nodes, %d arcs@." g.n (arc_count g);
  iter_forward_arcs g (fun a ->
      Format.fprintf fmt "  %d -> %d  flow %d/%d cost %d@." (src g a)
        (dst g a) (flow g a) (original_capacity g a) (cost g a))

let to_dot ?node_label g =
  let label v =
    match node_label with Some f -> f v | None -> string_of_int v
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph flow {\n  rankdir=LR;\n";
  for v = 0 to g.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" v (label v))
  done;
  iter_forward_arcs g (fun a ->
      let extra = if cost g a <> 0 then Printf.sprintf " $%d" (cost g a) else "" in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%d/%d%s\"%s];\n" (src g a)
           (dst g a) (flow g a) (original_capacity g a) extra
           (if flow g a > 0 then ", penwidth=2" else "")));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
