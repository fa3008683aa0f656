type endpoint =
  | Proc of int
  | Res of int
  | Box_out of int * int
  | Box_in of int * int

type link_state = Free | Occupied of int

type box_spec = { fan_in : int; fan_out : int }

type box = {
  stage : int;
  spec : box_spec;
  in_links : int array;
  out_links : int array;
}

type link = { src : endpoint; dst : endpoint; mutable state : link_state }

type t = {
  name : string;
  n_procs : int;
  n_res : int;
  n_stages : int;
  boxes : box array;
  links : link array;
  stage_members : int list array;
  proc_link_ : int array;
  res_link_ : int array;
  link_up_ : bool array;
  box_up_ : bool array;
  res_up_ : bool array;
  link_q_ : bool array;
  box_q_ : bool array;
  res_q_ : bool array;
  mutable next_circuit : int;
  live : (int, int list) Hashtbl.t;  (* circuit id -> links *)
}

let is_perm a n =
  Array.length a = n
  && begin
    let seen = Array.make n false in
    Array.for_all
      (fun x -> x >= 0 && x < n && not seen.(x) && (seen.(x) <- true; true))
      a
  end

let build ~name ~n_procs ~n_res ~stage_boxes ~proc_wiring ~stage_wiring
    ~res_wiring =
  let n_stages = Array.length stage_boxes in
  if n_stages = 0 then invalid_arg "Network.build: no stages";
  if n_procs <= 0 || n_res <= 0 then invalid_arg "Network.build: empty sides";
  (* Per-stage rail totals. *)
  let in_rails s = Array.fold_left (fun acc b -> acc + b.fan_in) 0 stage_boxes.(s) in
  let out_rails s = Array.fold_left (fun acc b -> acc + b.fan_out) 0 stage_boxes.(s) in
  if in_rails 0 <> n_procs then
    invalid_arg "Network.build: stage 0 fan-in must equal n_procs";
  if out_rails (n_stages - 1) <> n_res then
    invalid_arg "Network.build: last stage fan-out must equal n_res";
  for s = 0 to n_stages - 2 do
    if out_rails s <> in_rails (s + 1) then
      invalid_arg "Network.build: rail count mismatch between stages"
  done;
  if not (is_perm proc_wiring n_procs) then
    invalid_arg "Network.build: proc_wiring is not a permutation";
  if Array.length stage_wiring <> n_stages - 1 then
    invalid_arg "Network.build: need one wiring array per inter-stage rank";
  for s = 0 to n_stages - 2 do
    if not (is_perm stage_wiring.(s) (out_rails s)) then
      invalid_arg "Network.build: stage_wiring is not a permutation"
  done;
  if not (is_perm res_wiring n_res) then
    invalid_arg "Network.build: res_wiring is not a permutation";

  (* Box numbering: stage-major. Rail -> (box, port) lookup per stage. *)
  let stage_offset = Array.make n_stages 0 in
  for s = 1 to n_stages - 1 do
    stage_offset.(s) <- stage_offset.(s - 1) + Array.length stage_boxes.(s - 1)
  done;
  let total_boxes = stage_offset.(n_stages - 1) + Array.length stage_boxes.(n_stages - 1) in
  let in_port_of_rail s r =
    (* Walk the boxes of stage s to find which input port rail r is. *)
    let rec go j r =
      let fi = stage_boxes.(s).(j).fan_in in
      if r < fi then (stage_offset.(s) + j, r) else go (j + 1) (r - fi)
    in
    go 0 r
  in
  let out_port_of_rail s r =
    let rec go j r =
      let fo = stage_boxes.(s).(j).fan_out in
      if r < fo then (stage_offset.(s) + j, r) else go (j + 1) (r - fo)
    in
    go 0 r
  in

  let links = ref [] and n_links = ref 0 in
  let add_link src dst =
    links := { src; dst; state = Free } :: !links;
    incr n_links;
    !n_links - 1
  in
  let box_in = Array.init total_boxes (fun _ -> [||])
  and box_out = Array.init total_boxes (fun _ -> [||]) in
  Array.iteri
    (fun s boxes ->
      Array.iteri
        (fun j spec ->
          let b = stage_offset.(s) + j in
          box_in.(b) <- Array.make spec.fan_in (-1);
          box_out.(b) <- Array.make spec.fan_out (-1))
        boxes)
    stage_boxes;

  let proc_link_ = Array.make n_procs (-1) in
  for i = 0 to n_procs - 1 do
    let b, p = in_port_of_rail 0 proc_wiring.(i) in
    let l = add_link (Proc i) (Box_in (b, p)) in
    proc_link_.(i) <- l;
    box_in.(b).(p) <- l
  done;
  for s = 0 to n_stages - 2 do
    for r = 0 to out_rails s - 1 do
      let sb, sp = out_port_of_rail s r in
      let db, dp = in_port_of_rail (s + 1) stage_wiring.(s).(r) in
      let l = add_link (Box_out (sb, sp)) (Box_in (db, dp)) in
      box_out.(sb).(sp) <- l;
      box_in.(db).(dp) <- l
    done
  done;
  let res_link_ = Array.make n_res (-1) in
  for r = 0 to n_res - 1 do
    let sb, sp = out_port_of_rail (n_stages - 1) r in
    let l = add_link (Box_out (sb, sp)) (Res res_wiring.(r)) in
    box_out.(sb).(sp) <- l;
    res_link_.(res_wiring.(r)) <- l
  done;

  let boxes =
    Array.init total_boxes (fun b ->
        let s =
          let rec find s = if s + 1 < n_stages && stage_offset.(s + 1) <= b then find (s + 1) else s in
          find 0
        in
        { stage = s;
          spec = stage_boxes.(s).(b - stage_offset.(s));
          in_links = box_in.(b);
          out_links = box_out.(b) })
  in
  let stage_members = Array.make n_stages [] in
  Array.iteri (fun b box -> stage_members.(box.stage) <- b :: stage_members.(box.stage)) boxes;
  Array.iteri (fun s ms -> stage_members.(s) <- List.rev ms) stage_members;
  { name; n_procs; n_res; n_stages; boxes;
    links = Array.of_list (List.rev !links);
    stage_members; proc_link_; res_link_;
    link_up_ = Array.make !n_links true;
    box_up_ = Array.make total_boxes true;
    res_up_ = Array.make n_res true;
    link_q_ = Array.make !n_links false;
    box_q_ = Array.make total_boxes false;
    res_q_ = Array.make n_res false;
    next_circuit = 0; live = Hashtbl.create 16 }

let name t = t.name
let n_procs t = t.n_procs
let n_res t = t.n_res
let stages t = t.n_stages
let n_boxes t = Array.length t.boxes
let n_links t = Array.length t.links

let check_box t b = if b < 0 || b >= n_boxes t then invalid_arg "Network: bad box"
let check_link t l = if l < 0 || l >= n_links t then invalid_arg "Network: bad link"

let box_stage t b = check_box t b; t.boxes.(b).stage
let box_spec t b = check_box t b; t.boxes.(b).spec
let boxes_in_stage t s =
  if s < 0 || s >= t.n_stages then invalid_arg "Network: bad stage";
  t.stage_members.(s)

let box_in_links t b = check_box t b; Array.copy t.boxes.(b).in_links
let box_out_links t b = check_box t b; Array.copy t.boxes.(b).out_links
let link_src t l = check_link t l; t.links.(l).src
let link_dst t l = check_link t l; t.links.(l).dst
let proc_link t i =
  if i < 0 || i >= t.n_procs then invalid_arg "Network.proc_link";
  t.proc_link_.(i)
let res_link t j =
  if j < 0 || j >= t.n_res then invalid_arg "Network.res_link";
  t.res_link_.(j)

let link_state t l = check_link t l; t.links.(l).state

(* --- element health ----------------------------------------------------- *)

let check_res t r = if r < 0 || r >= t.n_res then invalid_arg "Network: bad res"

let link_up t l = check_link t l; t.link_up_.(l)
let box_up t b = check_box t b; t.box_up_.(b)
let res_up t r = check_res t r; t.res_up_.(r)

let set_link_up t l up = check_link t l; t.link_up_.(l) <- up
let set_box_up t b up = check_box t b; t.box_up_.(b) <- up
let set_res_up t r up = check_res t r; t.res_up_.(r) <- up

(* --- element quarantine -------------------------------------------------- *)

let link_quarantined t l = check_link t l; t.link_q_.(l)
let box_quarantined t b = check_box t b; t.box_q_.(b)
let res_quarantined t r = check_res t r; t.res_q_.(r)

let set_link_quarantined t l q = check_link t l; t.link_q_.(l) <- q
let set_box_quarantined t b q = check_box t b; t.box_q_.(b) <- q
let set_res_quarantined t r q = check_res t r; t.res_q_.(r) <- q

let res_available t r = check_res t r; t.res_up_.(r) && not t.res_q_.(r)

let endpoint_up t = function
  | Proc _ -> true
  | Res r -> t.res_up_.(r) && not t.res_q_.(r)
  | Box_in (b, _) | Box_out (b, _) -> t.box_up_.(b) && not t.box_q_.(b)

let usable t l =
  check_link t l;
  t.link_up_.(l)
  && not t.link_q_.(l)
  && endpoint_up t t.links.(l).src
  && endpoint_up t t.links.(l).dst

let all_up t =
  Array.for_all Fun.id t.link_up_
  && Array.for_all Fun.id t.box_up_
  && Array.for_all Fun.id t.res_up_
  && Array.for_all not t.link_q_
  && Array.for_all not t.box_q_
  && Array.for_all not t.res_q_

let rec all_free t = function
  | [] -> true
  | l :: rest -> check_link t l; t.links.(l).state = Free && all_free t rest

let rec set_state t state = function
  | [] -> ()
  | l :: rest ->
    t.links.(l).state <- state;
    set_state t state rest

let claim t ls =
  let id = t.next_circuit in
  t.next_circuit <- id + 1;
  set_state t (Occupied id) ls;
  Hashtbl.replace t.live id ls;
  id

let establish_unchecked t ls =
  if ls = [] then invalid_arg "Network.establish: empty circuit";
  if not (all_free t ls) then invalid_arg "Network.establish: link busy";
  claim t ls

let rec check_chain t = function
  | [] -> assert false
  | [ l ] ->
    (match t.links.(l).dst with
    | Res _ -> ()
    | Proc _ | Box_in _ | Box_out _ ->
      invalid_arg "Network.establish: path must end at a resource")
  | l1 :: (l2 :: _ as rest) ->
    (match (t.links.(l1).dst, t.links.(l2).src) with
    | Box_in (b1, _), Box_out (b2, _) when b1 = b2 -> check_chain t rest
    | _ -> invalid_arg "Network.establish: links are not chained through a box")

let establish t ls =
  if ls = [] then invalid_arg "Network.establish: empty circuit";
  if not (all_free t ls) then invalid_arg "Network.establish: link busy";
  (match t.links.(List.hd ls).src with
  | Proc _ -> ()
  | Res _ | Box_in _ | Box_out _ ->
    invalid_arg "Network.establish: path must start at a processor");
  check_chain t ls;
  claim t ls

let release t id =
  match Hashtbl.find t.live id with
  | ls ->
    set_state t Free ls;
    Hashtbl.remove t.live id
  | exception Not_found -> ()

let circuit_links t id =
  match Hashtbl.find t.live id with
  | ls -> ls
  | exception Not_found -> invalid_arg "Network.circuit_links: no such circuit"

(* Ids are handed out in increasing order, so newest first is by id,
   descending. *)
let circuits t =
  Hashtbl.fold (fun id ls acc -> (id, ls) :: acc) t.live []
  |> List.sort (fun (a, _) (b, _) -> compare (b : int) a)

let clear_circuits t =
  Array.iter (fun l -> l.state <- Free) t.links;
  Hashtbl.reset t.live

let free_links t =
  let acc = ref [] in
  Array.iteri (fun i l -> if l.state = Free then acc := i :: !acc) t.links;
  List.rev !acc

let copy t =
  { t with
    links = Array.map (fun l -> { l with state = l.state }) t.links;
    link_up_ = Array.copy t.link_up_;
    box_up_ = Array.copy t.box_up_;
    res_up_ = Array.copy t.res_up_;
    link_q_ = Array.copy t.link_q_;
    box_q_ = Array.copy t.box_q_;
    res_q_ = Array.copy t.res_q_;
    live = Hashtbl.copy t.live }

let paths_exist t =
  (* Forward reachability through empty network: processor -> any Res. *)
  let nb = n_boxes t in
  for i = 0 to t.n_procs - 1 do
    let visited = Array.make nb false in
    let reached = ref false in
    let rec follow_link l =
      match t.links.(l).dst with
      | Res _ -> reached := true
      | Box_in (b, _) ->
        if not visited.(b) then begin
          visited.(b) <- true;
          Array.iter follow_link t.boxes.(b).out_links
        end
      | Proc _ | Box_out _ -> failwith "Network: malformed link destination"
    in
    follow_link t.proc_link_.(i);
    if not !reached then
      failwith (Printf.sprintf "Network %s: processor %d cannot reach any resource" t.name i)
  done

let endpoint_to_string = function
  | Proc i -> Printf.sprintf "p%d" i
  | Res j -> Printf.sprintf "r%d" j
  | Box_in (b, p) -> Printf.sprintf "b%d:i%d" b p
  | Box_out (b, p) -> Printf.sprintf "b%d:o%d" b p

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" t.name);
  for i = 0 to t.n_procs - 1 do
    Buffer.add_string buf (Printf.sprintf "  p%d [shape=circle];\n" i)
  done;
  for j = 0 to t.n_res - 1 do
    Buffer.add_string buf (Printf.sprintf "  r%d [shape=doublecircle];\n" j)
  done;
  Array.iteri
    (fun b box ->
      Buffer.add_string buf
        (Printf.sprintf "  b%d [shape=box, label=\"S%d/B%d\"];\n" b box.stage b))
    t.boxes;
  let node_of = function
    | Proc i -> Printf.sprintf "p%d" i
    | Res j -> Printf.sprintf "r%d" j
    | Box_in (b, _) | Box_out (b, _) -> Printf.sprintf "b%d" b
  in
  Array.iteri
    (fun i l ->
      let style = match l.state with Free -> "" | Occupied _ -> ", color=red, penwidth=2" in
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s [label=\"l%d\"%s];\n" (node_of l.src)
           (node_of l.dst) i style))
    t.links;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_occupancy fmt t =
  (* One row per stage; each box shows its input and output ports as
     '.' free / '#' occupied. *)
  let port_char l = match t.links.(l).state with Free -> '.' | Occupied _ -> '#' in
  Format.fprintf fmt "%s: %d circuits live@." t.name (Hashtbl.length t.live);
  Format.fprintf fmt "procs: %s@."
    (String.concat ""
       (List.init t.n_procs (fun p -> String.make 1 (port_char t.proc_link_.(p)))));
  for s = 0 to t.n_stages - 1 do
    Format.fprintf fmt "stage %d:" s;
    List.iter
      (fun b ->
        let ins =
          String.concat ""
            (Array.to_list (Array.map (fun l -> String.make 1 (port_char l)) t.boxes.(b).in_links))
        in
        let outs =
          String.concat ""
            (Array.to_list (Array.map (fun l -> String.make 1 (port_char l)) t.boxes.(b).out_links))
        in
        Format.fprintf fmt " [%s|%s]" ins outs)
      t.stage_members.(s);
    Format.fprintf fmt "@."
  done;
  Format.fprintf fmt "res:   %s@."
    (String.concat ""
       (List.init t.n_res (fun r -> String.make 1 (port_char t.res_link_.(r)))))

let pp_summary fmt t =
  Format.fprintf fmt "%s: %d procs, %d resources, %d stages, %d boxes, %d links"
    t.name t.n_procs t.n_res t.n_stages (n_boxes t) (n_links t)


