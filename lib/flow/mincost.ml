module Heap = Rsin_util.Heap

type stats = { augmentations : int; arcs_scanned : int }
type result = { flow : int; cost : int; stats : stats }

let inf = max_int / 4

(* Bellman-Ford from the source over residual-positive arcs, to seed the
   potentials when negative costs are present. Runs once. *)
let bellman_ford g ~source =
  let n = Graph.node_count g in
  let dist = Array.make n inf in
  dist.(source) <- 0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    for v = 0 to n - 1 do
      if dist.(v) < inf then
        Graph.iter_out g v (fun a ->
            if Graph.capacity g a > 0 then begin
              let w = Graph.dst g a in
              let d = dist.(v) + Graph.cost g a in
              if d < dist.(w) then begin
                dist.(w) <- d;
                changed := true
              end
            end)
    done
  done;
  if !changed then failwith "Mincost: negative cycle in input network";
  dist

(* Dijkstra with reduced costs cπ(a) = c(a) + π(src) - π(dst) >= 0.
   Returns (dist, pred) over residual-positive arcs. *)
let dijkstra g ~source ~pot ~scanned =
  let n = Graph.node_count g in
  let dist = Array.make n inf in
  let pred = Array.make n (-1) in
  let final = Array.make n false in
  dist.(source) <- 0;
  let h = Heap.create ~cmp:compare in
  Heap.add h 0 source;
  let rec loop () =
    match Heap.pop_min h with
    | None -> ()
    | Some (d, v) ->
      if not final.(v) then begin
        final.(v) <- true;
        ignore d;
        Graph.iter_out g v (fun a ->
            incr scanned;
            if Graph.capacity g a > 0 then begin
              let w = Graph.dst g a in
              if not final.(w) then begin
                let rc = Graph.cost g a + pot.(v) - pot.(w) in
                let nd = dist.(v) + rc in
                if nd < dist.(w) then begin
                  dist.(w) <- nd;
                  pred.(w) <- a;
                  Heap.add h nd w
                end
              end
            end)
      end;
      loop ()
  in
  loop ();
  (dist, pred)

let has_negative_cost g =
  let neg = ref false in
  Graph.iter_forward_arcs g (fun a -> if Graph.cost g a < 0 then neg := true);
  !neg

let run ?obs g ~source ~sink ~amount =
  let n = Graph.node_count g in
  let pot =
    if has_negative_cost g then bellman_ford g ~source else Array.make n 0
  in
  (* Unreachable nodes keep potential 0; they are never relaxed again
     unless they become reachable, in which case reduced costs stay valid
     because Dijkstra re-derives distances each round. Clamp inf. *)
  Array.iteri (fun i d -> if d >= inf then pot.(i) <- 0 else pot.(i) <- d) pot;
  let scanned = ref 0 and augs = ref 0 in
  let pushed = ref 0 in
  let continue = ref true in
  while !continue && !pushed < amount do
    let dist, pred = dijkstra g ~source ~pot ~scanned in
    if dist.(sink) >= inf then continue := false
    else begin
      (* Update potentials with the new exact distances. *)
      for v = 0 to n - 1 do
        if dist.(v) < inf then pot.(v) <- pot.(v) + dist.(v)
      done;
      (* Walk the shortest path, find bottleneck, push. *)
      let rec bottleneck v acc =
        if v = source then acc
        else
          let a = pred.(v) in
          bottleneck (Graph.src g a) (min acc (Graph.capacity g a))
      in
      let k = min (bottleneck sink inf) (amount - !pushed) in
      let rec apply v =
        if v <> source then begin
          let a = pred.(v) in
          Graph.push g a k;
          apply (Graph.src g a)
        end
      in
      apply sink;
      pushed := !pushed + k;
      incr augs
    end
  done;
  let module Obs = Rsin_obs.Obs in
  Obs.count obs "flow.mincost.runs" 1;
  Obs.count obs "flow.mincost.augmentations" !augs;
  Obs.count obs "flow.mincost.arcs_scanned" !scanned;
  { flow = !pushed;
    cost = Graph.total_cost g;
    stats = { augmentations = !augs; arcs_scanned = !scanned } }

let min_cost_flow ?obs g ~source ~sink ~amount =
  if amount < 0 then invalid_arg "Mincost.min_cost_flow: negative amount";
  run ?obs g ~source ~sink ~amount

let min_cost_max_flow ?obs g ~source ~sink = run ?obs g ~source ~sink ~amount:inf
