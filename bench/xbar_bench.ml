(* E33: RR vs iSLIP saturation curves on the buffered VOQ packet fabric.

   The classic switch-fabric characterization, run over the paper's
   topologies: every processor offers Bernoulli(load) single-flit tasks
   to uniformly random reachable resources; below saturation the
   delivered throughput tracks the offered load, past it the curve
   flattens at the ceiling the per-box arbiter can sustain. The naive
   round-robin arbiter keeps one box-wide pointer that every box
   advances in lockstep, so under symmetric load the boxes repeat the
   same conflicts cycle after cycle; iSLIP's per-port grant/accept
   pointers desynchronize (they only move on first-iteration accepted
   grants) and recover most of that loss. The bench asserts the
   headline result — iSLIP saturation throughput >= naive RR on
   omega:16 at every load >= 0.8 — and writes the whole curve set as a
   structured BENCH_xbar.json for the [rsin perf] regression gate. *)

module Builders = Rsin_topology.Builders
module Arbiter = Rsin_packet.Arbiter
module Sweep = Rsin_packet.Sweep
module Prng = Rsin_util.Prng
module Table = Rsin_util.Table
module Bench_report = Rsin_obs.Bench_report

let seed = 5
let loads = [ 0.2; 0.4; 0.6; 0.8; 0.9; 1.0 ]

let xbar ?(quick = false) () =
  let slots = if quick then 600 else 1500 in
  print_endline "== E33: RR vs iSLIP saturation (VOQ packet fabric) ==";
  Printf.printf "  (vq-depth 4, 1-flit tasks, %d measured slots/point, seed %d)\n\n"
    slots seed;
  let report = Bench_report.create ~quick "xbar" in
  let sweep arb net =
    Sweep.saturation ~vq_depth:4 ~flits:1 ~arbiter:(Arbiter.get arb)
      (Prng.create seed) net ~slots ~loads
  in
  let curves =
    List.map
      (fun (name, net) ->
        Printf.printf "-- %s --\n" name;
        let per_arb =
          List.map
            (fun arb ->
              let case =
                Bench_report.case report (Printf.sprintf "%s/%s" name arb)
              in
              let points = ref [] in
              let m =
                Bench_report.measure ~warmup:0 ~runs:2 (fun () ->
                    points := sweep arb net)
              in
              Bench_report.record case ~prefix:"sweep" m;
              List.iter
                (fun (p : Sweep.point) ->
                  let at metric =
                    Printf.sprintf "load=%s.%s" (Table.ffix 2 p.Sweep.load)
                      metric
                  in
                  Bench_report.record_yield case ~name:(at "throughput")
                    ~unit_:"flit/res/slot" p.Sweep.throughput;
                  Bench_report.record_yield case ~name:(at "delivered")
                    (float_of_int p.Sweep.delivered_tasks);
                  Bench_report.record_count case ~name:(at "conflicts")
                    (float_of_int p.Sweep.conflicts))
                !points;
              (arb, !points))
            [ "rr"; "islip" ]
        in
        let rr = List.assoc "rr" per_arb and islip = List.assoc "islip" per_arb in
        Table.print
          ~header:
            [ "load"; "rr thpt"; "islip thpt"; "rr delay"; "islip delay";
              "rr confl"; "islip confl" ]
          (List.map2
             (fun (r : Sweep.point) (i : Sweep.point) ->
               [ Table.ffix 2 r.Sweep.load;
                 Table.ffix 4 r.Sweep.throughput;
                 Table.ffix 4 i.Sweep.throughput;
                 Table.ffix 2 r.Sweep.mean_delay;
                 Table.ffix 2 i.Sweep.mean_delay;
                 string_of_int r.Sweep.conflicts;
                 string_of_int i.Sweep.conflicts ])
             rr islip);
        print_newline ();
        (name, per_arb))
      [ ("omega:16", Builders.omega 16);
        ("clos:3,2,4", Builders.clos ~m:3 ~n:2 ~r:4) ]
  in
  (* The acceptance invariant: on omega:16 past the knee (load >= 0.8)
     iSLIP must sustain at least the naive round-robin throughput. *)
  let omega = List.assoc "omega:16" curves in
  let rr = List.assoc "rr" omega and islip = List.assoc "islip" omega in
  List.iter2
    (fun (r : Sweep.point) (i : Sweep.point) ->
      if r.Sweep.load >= 0.8 && i.Sweep.throughput < r.Sweep.throughput then (
        Printf.eprintf
          "E33: islip throughput %.4f < rr %.4f at load %.2f on omega:16\n"
          i.Sweep.throughput r.Sweep.throughput r.Sweep.load;
        assert false))
    rr islip;
  print_endline
    "  (checked: islip >= rr saturation throughput on omega:16 at load >= 0.8)";
  Printf.printf "  wrote %s\n\n" (Bench_report.write report)
