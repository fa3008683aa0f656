module Prng = Rsin_util.Prng
module Json = Rsin_util.Json
module D = Json.Decode
module Network = Rsin_topology.Network

type element = Link of int | Box of int | Res of int

type event =
  | Link_down of int
  | Link_up of int
  | Box_down of int
  | Box_up of int
  | Res_down of int
  | Res_up of int

let element = function
  | Link_down l | Link_up l -> Link l
  | Box_down b | Box_up b -> Box b
  | Res_down r | Res_up r -> Res r

let kind_idx = function
  | Link l -> ("link", l)
  | Box b -> ("box", b)
  | Res r -> ("res", r)

let element_fields e =
  let kind, idx = kind_idx e in
  [ ("kind", Json.Str kind); ("idx", Json.int idx) ]

let decode_element j =
  let idx = D.field "idx" D.int j in
  match D.field "kind" D.str j with
  | "link" -> Link idx
  | "box" -> Box idx
  | "res" -> Res idx
  | k -> D.fail "unknown element kind %S" k

let element_name e =
  let kind, idx = kind_idx e in
  kind ^ string_of_int idx

let in_range net e =
  let idx, n =
    match e with
    | Link l -> (l, Network.n_links net)
    | Box b -> (b, Network.n_boxes net)
    | Res r -> (r, Network.n_res net)
  in
  idx >= 0 && idx < n

let is_down = function
  | Link_down _ | Box_down _ | Res_down _ -> true
  | Link_up _ | Box_up _ | Res_up _ -> false

let apply net = function
  | Link_down l -> Network.set_link_up net l false
  | Link_up l -> Network.set_link_up net l true
  | Box_down b -> Network.set_box_up net b false
  | Box_up b -> Network.set_box_up net b true
  | Res_down r -> Network.set_res_up net r false
  | Res_up r -> Network.set_res_up net r true

let affected_links net = function
  | Link l -> [ l ]
  | Res r -> [ Network.res_link net r ]
  | Box b ->
    Array.to_list (Network.box_in_links net b)
    @ Array.to_list (Network.box_out_links net b)

let victims net el =
  let links = affected_links net el in
  List.filter_map
    (fun l ->
      match Network.link_state net l with
      | Network.Occupied id -> Some id
      | Network.Free -> None)
    links
  |> List.sort_uniq compare

type schedule = (int * event) list

let down_of = function
  | Link l -> Link_down l
  | Box b -> Box_down b
  | Res r -> Res_down r

let up_of = function
  | Link l -> Link_up l
  | Box b -> Box_up b
  | Res r -> Res_up r

let inject ?links ?(boxes = []) ?(ress = []) rng net ~horizon ~mtbf ~mttr =
  if mtbf <= 0. || mttr <= 0. then invalid_arg "Fault.inject: rates";
  let links =
    match links with
    | Some ls -> ls
    | None -> List.init (Network.n_links net) Fun.id
  in
  let population =
    List.map (fun l -> Link l) links
    @ List.map (fun b -> Box b) boxes
    @ List.map (fun r -> Res r) ress
  in
  (* One independent sub-stream per element: the schedule of element k
     does not change when the population around it does. *)
  let events = ref [] in
  List.iter
    (fun el ->
      let g = Prng.split rng in
      let t = ref (Prng.exponential g (1. /. mtbf)) in
      let up = ref true in
      while int_of_float !t < horizon do
        let slot = int_of_float !t in
        let ev = if !up then down_of el else up_of el in
        events := (slot, ev) :: !events;
        let rate = if !up then 1. /. mttr else 1. /. mtbf in
        up := not !up;
        t := !t +. Prng.exponential g rate
      done)
    population;
  (* Stable by construction order within a slot: down/up alternation of
     one element never reorders. *)
  List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !events)

type clocked_schedule = (int * int * event) list

let inject_clocked ?links ?boxes ?ress rng net ~horizon ~mtbf ~mttr ~clock_range =
  if clock_range < 1 then invalid_arg "Fault.inject_clocked: clock_range";
  let sched = inject ?links ?boxes ?ress rng net ~horizon ~mtbf ~mttr in
  (* The element schedule is drawn exactly as [inject] draws it (same
     rng, same sub-stream per element), then the intra-cycle clocks come
     from one further split — so the slot-granular projection of a
     clocked schedule equals the plain injection for the same seed. *)
  let g = Prng.split rng in
  List.map (fun (t, ev) -> (t, Prng.int g clock_range, ev)) sched
