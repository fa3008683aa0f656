type layers = { lv : int array; depth : int }

type stats = { phases : int; augmentations : int; arcs_scanned : int }

let build_layers g ~source ~sink =
  let n = Graph.node_count g in
  let lv = Array.make n (-1) in
  lv.(source) <- 0;
  let q = Queue.create () in
  Queue.push source q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_out g v (fun a ->
        let w = Graph.dst g a in
        if lv.(w) < 0 && Graph.capacity g a > 0 then begin
          lv.(w) <- lv.(v) + 1;
          Queue.push w q
        end)
  done;
  if lv.(sink) < 0 then None else Some { lv; depth = lv.(sink) + 1 }

let level l v = l.lv.(v)
let num_layers l = l.depth

let useful_arc g l a =
  Graph.capacity g a > 0
  && l.lv.(Graph.src g a) >= 0
  && l.lv.(Graph.dst g a) = l.lv.(Graph.src g a) + 1

(* Iterative DFS with per-node arc cursors ("current-arc" optimisation):
   each arc is abandoned at most once per phase, giving the standard
   O(VE) phase bound (O(E) on unit-capacity graphs). *)
let blocking_flow g l ~source ~sink =
  let n = Graph.node_count g in
  let cursor = Array.make n [] in
  for v = 0 to n - 1 do
    cursor.(v) <- Graph.fold_out g v ~init:[] ~f:(fun acc a -> a :: acc)
  done;
  let scanned = ref 0 in
  let total = ref 0 in
  (* Find one source->sink path along useful arcs; dead ends prune their
     cursor lists so later probes skip them. *)
  let rec probe v path =
    if v = sink then Some (List.rev path)
    else
      match cursor.(v) with
      | [] -> None
      | a :: rest ->
        incr scanned;
        if useful_arc g l a then
          match probe (Graph.dst g a) (a :: path) with
          | Some p -> Some p
          | None ->
            cursor.(v) <- rest;
            probe v path
        else begin
          cursor.(v) <- rest;
          probe v path
        end
  in
  let rec drain () =
    match probe source [] with
    | None -> ()
    | Some path ->
      let k = List.fold_left (fun acc a -> min acc (Graph.capacity g a)) max_int path in
      List.iter (fun a -> Graph.push g a k) path;
      total := !total + k;
      drain ()
  in
  drain ();
  (!total, !scanned)

module Obs = Rsin_obs.Obs
module Tr = Rsin_obs.Trace

let max_flow ?obs g ~source ~sink =
  let phases = ref 0 and augs = ref 0 and scanned = ref 0 and total = ref 0 in
  let tracing = Obs.tracing obs in
  let rec loop () =
    match build_layers g ~source ~sink with
    | None -> ()
    | Some l ->
      incr phases;
      if tracing then
        Obs.span_begin obs "dinic.phase" ~ts:!scanned
          ~args:[ ("phase", Tr.Int !phases); ("layers", Tr.Int l.depth) ];
      let added, sc = blocking_flow g l ~source ~sink in
      scanned := !scanned + sc;
      (* In a unit-capacity graph each augmenting path carries one unit,
         so paths pushed = flow added; for general capacities this counts
         units, which is still the quantity E11 charges per path setup. *)
      augs := !augs + added;
      total := !total + added;
      if tracing then
        Obs.span_end obs "dinic.phase" ~ts:!scanned
          ~args:[ ("flow_added", Tr.Int added) ];
      if added > 0 then loop ()
  in
  loop ();
  let stats = { phases = !phases; augmentations = !augs; arcs_scanned = !scanned } in
  Obs.count obs "flow.dinic.runs" 1;
  Obs.count obs "flow.dinic.phases" stats.phases;
  Obs.count obs "flow.dinic.augmentations" stats.augmentations;
  Obs.count obs "flow.dinic.arcs_scanned" stats.arcs_scanned;
  (!total, stats)

