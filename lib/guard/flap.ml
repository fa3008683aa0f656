module Json = Rsin_util.Json
module Fault = Rsin_fault.Fault

type t = {
  policy : Policy.t;
  history : (Fault.element, int list) Hashtbl.t;  (* fault slots, newest first *)
  quarantined : (Fault.element, int) Hashtbl.t;   (* element -> release slot *)
}

let create policy = { policy; history = Hashtbl.create 16; quarantined = Hashtbl.create 8 }

let is_quarantined t e = Hashtbl.mem t.quarantined e

let release t e = Hashtbl.remove t.quarantined e

let record_fault t ~now e =
  if t.policy.Policy.flap_k = 0 || is_quarantined t e then None
  else begin
    let keep = now - t.policy.Policy.flap_window + 1 in
    let recent =
      now
      :: List.filter
           (fun s -> s >= keep)
           (Option.value ~default:[] (Hashtbl.find_opt t.history e))
    in
    if List.length recent >= t.policy.Policy.flap_k then begin
      Hashtbl.remove t.history e;
      let until = now + t.policy.Policy.quarantine_slots in
      Hashtbl.replace t.quarantined e until;
      Some until
    end
    else begin
      Hashtbl.replace t.history e recent;
      None
    end
  end

(* Canonical element order: links, then boxes, then resources, by index
   — keeps snapshots byte-stable across hashtable layouts. Compared as
   two ints, so a comparison allocates nothing. *)
let kind_rank = function
  | Fault.Link _ -> 0
  | Fault.Box _ -> 1
  | Fault.Res _ -> 2

let index = function Fault.Link i | Fault.Box i | Fault.Res i -> i

let compare_elt a b =
  let c = Int.compare (kind_rank a) (kind_rank b) in
  if c <> 0 then c else Int.compare (index a) (index b)

let active t =
  Hashtbl.fold (fun e until acc -> (e, until) :: acc) t.quarantined []
  |> List.sort (fun (a, _) (b, _) -> compare_elt a b)

let element_json e = Json.Obj (Fault.element_fields e)

(* The history's elements sorted in place in one array, its entries
   then consed from the last: no list is built only to be sorted or
   mapped. *)
let history_json t =
  let keys = Array.make (Hashtbl.length t.history) (Fault.Link 0) in
  ignore (Hashtbl.fold (fun e _ i -> keys.(i) <- e; i + 1) t.history 0);
  Array.sort compare_elt keys;
  let rec entries k acc =
    if k < 0 then acc
    else
      let e = keys.(k) in
      entries (k - 1)
        (Json.Obj
           [ ("element", element_json e);
             ("slots", Json.Arr (List.map Json.int (Hashtbl.find t.history e))) ]
        :: acc)
  in
  entries (Array.length keys - 1) []

let to_json t =
  let history = history_json t in
  let quarantined =
    List.map
      (fun (e, until) ->
        Json.Obj [ ("element", element_json e); ("until", Json.int until) ])
      (active t)
  in
  Json.Obj [ ("history", Json.Arr history); ("quarantined", Json.Arr quarantined) ]

let of_json policy j =
  let module D = Json.Decode in
  D.run ~what:"Guard.Flap" (fun () ->
      let t = create policy in
      let entry k d =
        D.list (fun v ->
            (D.field "element" Fault.decode_element v, D.field k d v))
      in
      List.iter
        (fun (e, slots) -> Hashtbl.replace t.history e slots)
        (D.field "history" (entry "slots" (D.list D.int)) j);
      List.iter
        (fun (e, until) -> Hashtbl.replace t.quarantined e until)
        (D.field "quarantined" (entry "until" D.int) j);
      t)
