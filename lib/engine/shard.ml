module Network = Rsin_topology.Network
module Dsu = Rsin_util.Dsu

type part = {
  net : Network.t;
  procs : int array;
  ress : int array;
  boxes : int array;
  links : int array;
}

type t = {
  base : Network.t;
  parts : part array;
  shard_of_proc : int array;
  shard_of_res : int array;
  local_proc : int array;
  local_res : int array;
}

let n_shards t = Array.length t.parts

(* Element graph: processors, then resource ports, then boxes; every
   link unions its two endpoint elements. *)
let element_dsu net =
  let np = Network.n_procs net and nr = Network.n_res net in
  let dsu = Dsu.create (np + nr + Network.n_boxes net) in
  let node = function
    | Network.Proc i -> i
    | Network.Res j -> np + j
    | Network.Box_in (b, _) | Network.Box_out (b, _) -> np + nr + b
  in
  for l = 0 to Network.n_links net - 1 do
    ignore
      (Dsu.union dsu (node (Network.link_src net l)) (node (Network.link_dst net l)))
  done;
  dsu

let components net = Dsu.components (element_dsu net)

(* One connected component, element ids ascending. *)
type comp = { c_procs : int list; c_ress : int list; c_boxes : int list }

let find_components net =
  let np = Network.n_procs net and nr = Network.n_res net in
  let dsu = element_dsu net in
  let by_rep = Hashtbl.create 16 in
  let comp_of rep =
    match Hashtbl.find_opt by_rep rep with
    | Some c -> c
    | None ->
      let c = ref { c_procs = []; c_ress = []; c_boxes = [] } in
      Hashtbl.add by_rep rep c;
      c
  in
  (* Walk elements in descending id so the consed lists come out
     ascending. *)
  for b = Network.n_boxes net - 1 downto 0 do
    let c = comp_of (Dsu.find dsu (np + nr + b)) in
    c := { !c with c_boxes = b :: !c.c_boxes }
  done;
  for j = nr - 1 downto 0 do
    let c = comp_of (Dsu.find dsu (np + j)) in
    c := { !c with c_ress = j :: !c.c_ress }
  done;
  for i = np - 1 downto 0 do
    let c = comp_of (Dsu.find dsu i) in
    c := { !c with c_procs = i :: !c.c_procs }
  done;
  (* Deterministic component order: by smallest processor id. *)
  Hashtbl.fold (fun _ c acc -> !c :: acc) by_rep []
  |> List.sort (fun a b ->
         compare (List.nth_opt a.c_procs 0) (List.nth_opt b.c_procs 0))

(* Rebuild one component as a standalone network. Local ids ascend
   with the global ids; since Network numbers boxes stage-major, the
   ascending global order is already stage-major locally. *)
let extract base idx c =
  let procs = Array.of_list c.c_procs
  and ress = Array.of_list c.c_ress
  and boxes = Array.of_list c.c_boxes in
  let n_stages = Network.stages base in
  let lbox = Array.make (Network.n_boxes base) (-1) in
  Array.iteri (fun l g -> lbox.(g) <- l) boxes;
  let lres = Array.make (Network.n_res base) (-1) in
  Array.iteri (fun l g -> lres.(g) <- l) ress;
  (* Per-stage member boxes (local order) and local box-major rail
     offsets. *)
  let stage_boxes =
    Array.init n_stages (fun s ->
        Array.of_list
          (List.filter (fun b -> lbox.(b) >= 0) (Network.boxes_in_stage base s)))
  in
  let specs = Array.map (Array.map (Network.box_spec base)) stage_boxes in
  let in_off = Array.make (Array.length boxes) 0
  and out_off = Array.make (Array.length boxes) 0 in
  let in_rails = Array.make n_stages 0 and out_rails = Array.make n_stages 0 in
  Array.iteri
    (fun s members ->
      Array.iteri
        (fun j g ->
          in_off.(lbox.(g)) <- in_rails.(s);
          out_off.(lbox.(g)) <- out_rails.(s);
          in_rails.(s) <- in_rails.(s) + specs.(s).(j).Network.fan_in;
          out_rails.(s) <- out_rails.(s) + specs.(s).(j).Network.fan_out)
        members)
    stage_boxes;
  let local_in_rail l =
    match Network.link_dst base l with
    | Network.Box_in (b, p) when lbox.(b) >= 0 -> in_off.(lbox.(b)) + p
    | _ -> invalid_arg "link leaves its component"
  in
  let net =
    Network.build
      ~name:(Printf.sprintf "%s[%d]" (Network.name base) idx)
      ~n_procs:(Array.length procs) ~n_res:(Array.length ress)
      ~stage_boxes:specs
      ~proc_wiring:
        (Array.map (fun g -> local_in_rail (Network.proc_link base g)) procs)
      ~stage_wiring:
        (Array.init (n_stages - 1) (fun s ->
             let w = Array.make out_rails.(s) 0 in
             Array.iter
               (fun g ->
                 Array.iteri
                   (fun p l -> w.(out_off.(lbox.(g)) + p) <- local_in_rail l)
                   (Network.box_out_links base g))
               stage_boxes.(s);
             w))
      ~res_wiring:
        (let w = Array.make (Array.length ress) 0 in
         Array.iter
           (fun g ->
             Array.iteri
               (fun p l ->
                 match Network.link_dst base l with
                 | Network.Res j when lres.(j) >= 0 ->
                   w.(out_off.(lbox.(g)) + p) <- lres.(j)
                 | _ -> invalid_arg "link leaves its component")
               (Network.box_out_links base g))
           stage_boxes.(n_stages - 1);
         w)
  in
  (* Recover the local -> global link map from link sources: every link
     originates at a processor or a box output port, both of which we
     can name globally. *)
  let links =
    Array.init (Network.n_links net) (fun ll ->
        match Network.link_src net ll with
        | Network.Proc i -> Network.proc_link base procs.(i)
        | Network.Box_out (lb, p) -> (Network.box_out_links base boxes.(lb)).(p)
        | Network.Res _ | Network.Box_in _ -> assert false)
  in
  (* Mirror element health so a partition of a degraded network stays
     faithful. *)
  Array.iteri (fun ll gl -> Network.set_link_up net ll (Network.link_up base gl)) links;
  Array.iteri (fun lb gb -> Network.set_box_up net lb (Network.box_up base gb)) boxes;
  Array.iteri (fun lj gj -> Network.set_res_up net lj (Network.res_up base gj)) ress;
  { net; procs; ress; boxes; links }

let partition base =
  let np = Network.n_procs base and nr = Network.n_res base in
  if Network.circuits base <> [] then
    Error "Shard.partition: network carries live circuits"
  else begin
    let comps = find_components base in
    let bad =
      List.find_opt (fun c -> c.c_procs = [] || c.c_ress = []) comps
    in
    match bad with
    | Some _ ->
      Error
        "Shard.partition: a component has processors but no resource ports \
         (or vice versa)"
    | None -> (
      try
        let parts = List.mapi (extract base) comps |> Array.of_list in
        let shard_of_proc = Array.make np (-1)
        and shard_of_res = Array.make nr (-1)
        and local_proc = Array.make np (-1)
        and local_res = Array.make nr (-1) in
        Array.iteri
          (fun si part ->
            Array.iteri
              (fun l g ->
                shard_of_proc.(g) <- si;
                local_proc.(g) <- l)
              part.procs;
            Array.iteri
              (fun l g ->
                shard_of_res.(g) <- si;
                local_res.(g) <- l)
              part.ress)
          parts;
        Ok { base; parts; shard_of_proc; shard_of_res; local_proc; local_res }
      with Invalid_argument msg ->
        Error
          (Printf.sprintf
             "Shard.partition: component is not a standalone network (%s)" msg))
  end

let pp fmt t =
  Array.iteri
    (fun i part ->
      if i > 0 then Format.pp_print_cut fmt ();
      Format.fprintf fmt "shard %d: %s %dp %dr" i (Network.name part.net)
        (Array.length part.procs) (Array.length part.ress))
    t.parts
