type work = { passes : int; augmentations : int; arcs_scanned : int }

module type S = sig
  val name : string

  val max_flow :
    ?obs:Rsin_obs.Obs.t ->
    Graph.t -> source:Graph.node -> sink:Graph.node -> int * work
end

module Dinic_s : S = struct
  let name = "dinic"

  let max_flow ?obs g ~source ~sink =
    let f, (s : Dinic.stats) = Dinic.max_flow ?obs g ~source ~sink in
    ( f,
      { passes = s.Dinic.phases;
        augmentations = s.Dinic.augmentations;
        arcs_scanned = s.Dinic.arcs_scanned } )
end

module Edmonds_karp_s : S = struct
  let name = "edmonds-karp"

  let max_flow ?obs g ~source ~sink =
    let f, (s : Edmonds_karp.stats) = Edmonds_karp.max_flow ?obs g ~source ~sink in
    ( f,
      { passes = s.Edmonds_karp.augmentations;
        augmentations = s.Edmonds_karp.augmentations;
        arcs_scanned = s.Edmonds_karp.arcs_scanned } )
end

module Push_relabel_s : S = struct
  let name = "push-relabel"

  let max_flow ?obs g ~source ~sink =
    let f, (s : Push_relabel.stats) = Push_relabel.max_flow ?obs g ~source ~sink in
    (* No arc counter in the push-relabel core; pushes + relabels is the
       standard work proxy (each touches O(1) arcs amortized). *)
    ( f,
      { passes = s.Push_relabel.relabels;
        augmentations = s.Push_relabel.pushes;
        arcs_scanned = s.Push_relabel.pushes + s.Push_relabel.relabels } )
end

module Mincost_s : S = struct
  let name = "mincost"

  let max_flow ?obs g ~source ~sink =
    let r = Mincost.min_cost_max_flow ?obs g ~source ~sink in
    ( r.Mincost.flow,
      { passes = r.Mincost.stats.Mincost.augmentations;
        augmentations = r.Mincost.stats.Mincost.augmentations;
        arcs_scanned = r.Mincost.stats.Mincost.arcs_scanned } )
end

module Out_of_kilter_s : S = struct
  let name = "out-of-kilter"

  (* Max flow as a min-cost circulation: a return arc t->s priced below
     any path cost makes every kilter-reducing augmentation push more
     s-t flow. The return arc is zeroed and shut afterwards so the graph
     is left holding a plain s-t flow like the other engines. *)
  let max_flow ?obs g ~source ~sink =
    let cost_sum = ref 0 and cap_out = ref 0 in
    Graph.iter_forward_arcs g (fun a ->
        cost_sum := !cost_sum + abs (Graph.cost g a);
        if Graph.src g a = source then
          cap_out := !cap_out + Graph.original_capacity g a);
    let return_arc =
      Graph.add_arc g ~cost:(-(1 + !cost_sum)) ~src:sink ~dst:source
        ~cap:!cap_out
    in
    let outcome, (s : Out_of_kilter.stats) = Out_of_kilter.solve ?obs g in
    (match outcome with
    | Out_of_kilter.Optimal _ -> ()
    | Out_of_kilter.Infeasible ->
      (* All lower bounds are 0 here, so the zero circulation is feasible. *)
      assert false);
    let f = Graph.flow g return_arc in
    Graph.set_flow g return_arc 0;
    Graph.set_capacity g return_arc 0;
    ( f,
      { passes = s.Out_of_kilter.potential_updates;
        augmentations = s.Out_of_kilter.augmentations;
        arcs_scanned = s.Out_of_kilter.arcs_scanned } )
end

(* The CSR backend runs on a flat snapshot (Csr.of_graph) and copies
   the resulting flow back, so it satisfies the same Graph-in/Graph-out
   contract as the mutable-adjacency engines. The snapshot conversion
   allocates; the zero-allocation claim is about the solve itself and
   about warm cycles that keep one Csr.t alive (the online engine's
   Incremental, bench/csr_bench.ml). *)

module Dinic_csr_s : S = struct
  let name = "dinic-csr"

  let max_flow ?obs g ~source ~sink =
    let c = Csr.of_graph g in
    let f = Csr.dinic c ~source ~sink in
    Csr.write_flows c g;
    let s = Csr.last_stats c in
    Rsin_obs.Obs.count obs "flow.dinic_csr.runs" 1;
    Rsin_obs.Obs.count obs "flow.dinic_csr.phases" s.Csr.passes;
    Rsin_obs.Obs.count obs "flow.dinic_csr.augmentations" s.Csr.augmentations;
    Rsin_obs.Obs.count obs "flow.dinic_csr.arcs_scanned" s.Csr.arcs_scanned;
    ( f,
      { passes = s.Csr.passes;
        augmentations = s.Csr.augmentations;
        arcs_scanned = s.Csr.arcs_scanned } )
end

let all : (module S) list =
  [ (module Dinic_s);
    (module Edmonds_karp_s);
    (module Push_relabel_s);
    (module Mincost_s);
    (module Out_of_kilter_s);
    (module Dinic_csr_s) ]

let names () = List.map (fun (module M : S) -> M.name) all

let find name =
  List.find_opt (fun (module M : S) -> M.name = name) all

let get name =
  match find name with
  | Some m -> m
  | None ->
    invalid_arg
      (Printf.sprintf "Solver.get: unknown solver %S (known: %s)" name
         (String.concat ", " (names ())))
