(* Tests for the sharded multicore serving engine: the multi-plane
   builder, the shard partitioner, the domain pool, the cross-shard
   borrowing protocol, and the two headline guarantees — the merged
   differential (Σ per-shard allocations equals one from-scratch Dinic
   on the merged network, cycle by cycle, faults included) and domain
   determinism (domains=1 and domains=N produce identical per-cycle
   allocation trajectories). *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Transform1 = Rsin_core.Transform1
module Workload = Rsin_sim.Workload
module Fault = Rsin_fault.Fault
module Engine = Rsin_engine.Engine
module Shard = Rsin_engine.Shard
module Serve = Rsin_engine.Serve
module Domain_pool = Rsin_util.Domain_pool
module Prng = Rsin_util.Prng
module Json = Rsin_util.Json
module Policy = Rsin_guard.Policy

let check = Alcotest.check

(* --- Builders.multiplane -------------------------------------------------- *)

let test_multiplane_shape () =
  let base = Builders.omega 8 in
  let net = Builders.multiplane ~planes:3 base in
  check Alcotest.int "procs" 24 (Network.n_procs net);
  check Alcotest.int "res" 24 (Network.n_res net);
  check Alcotest.int "stages" (Network.stages base) (Network.stages net);
  check Alcotest.int "boxes" (3 * Network.n_boxes base) (Network.n_boxes net);
  check Alcotest.int "links" (3 * Network.n_links base) (Network.n_links net);
  Network.paths_exist net;
  (* Planes are isolated: a processor reaches exactly its own plane's
     resource ports. *)
  for p = 0 to 23 do
    for r = 0 to 23 do
      let same_plane = p / 8 = r / 8 in
      let reachable = Builders.route_unique net ~proc:p ~res:r <> None in
      check Alcotest.bool
        (Printf.sprintf "p%d->r%d reachable iff same plane" p r)
        same_plane reachable
    done
  done

let test_multiplane_flow_decomposes () =
  (* Max flow on the union equals the sum of per-plane max flows, for a
     spread of random request/free patterns. *)
  let base = Builders.omega 8 in
  let net = Builders.multiplane ~planes:2 base in
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      let requests, free = Workload.snapshot rng net in
      let merged = Transform1.schedule net ~requests ~free in
      let plane p =
        let mine l = List.filter (fun i -> i / 8 = p) l in
        match (mine requests, mine free) with
        | [], _ | _, [] -> 0
        | reqs, frs ->
          (Transform1.schedule net ~requests:reqs ~free:frs).Transform1.allocated
      in
      check Alcotest.int
        (Printf.sprintf "seed %d: union flow = plane sums" seed)
        (plane 0 + plane 1) merged.Transform1.allocated)
    [ 1; 2; 3; 4; 5 ]

let test_multiplane_invalid () =
  check Alcotest.bool "planes 0 rejected" true
    (try ignore (Builders.multiplane ~planes:0 (Builders.omega 4)); false
     with Invalid_argument _ -> true);
  let busy = Builders.omega 4 in
  (match Builders.route_unique busy ~proc:0 ~res:0 with
  | Some links -> ignore (Network.establish busy links)
  | None -> Alcotest.fail "route on empty omega4");
  check Alcotest.bool "busy base rejected" true
    (try ignore (Builders.multiplane ~planes:2 busy); false
     with Invalid_argument _ -> true)

(* --- Shard.partition ------------------------------------------------------ *)

let test_partition_planes () =
  let net = Builders.multiplane ~planes:4 (Builders.omega 8) in
  check Alcotest.int "components" 4 (Shard.components net);
  match Shard.partition net with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check Alcotest.int "shards" 4 (Shard.n_shards t);
    Array.iteri
      (fun si part ->
        check Alcotest.int "shard procs" 8 (Array.length part.Shard.procs);
        check Alcotest.int "shard res" 8 (Array.length part.Shard.ress);
        check Alcotest.bool "shard full access" true
          (Builders.full_access part.Shard.net);
        (* Local<->global maps round-trip. *)
        Array.iteri
          (fun l g ->
            check Alcotest.int "proc shard" si t.Shard.shard_of_proc.(g);
            check Alcotest.int "proc local" l t.Shard.local_proc.(g))
          part.Shard.procs)
      t.Shard.parts

let test_partition_connected_single () =
  (* A connected network is one component: one shard, same shape. *)
  let net = Builders.clos ~m:3 ~n:2 ~r:3 in
  match Shard.partition net with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check Alcotest.int "one shard" 1 (Shard.n_shards t);
    let part = t.Shard.parts.(0) in
    check Alcotest.int "all procs" (Network.n_procs net)
      (Array.length part.Shard.procs);
    check Alcotest.int "all links"
      (Network.n_links net)
      (Array.length part.Shard.links);
    check Alcotest.bool "full access" true (Builders.full_access part.Shard.net)

let test_partition_health_mirror () =
  let net = Builders.multiplane ~planes:2 (Builders.omega 4) in
  Network.set_link_up net 3 false;
  Network.set_res_up net 5 false;
  match Shard.partition net with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let down_links = ref 0 and down_res = ref 0 in
    Array.iter
      (fun part ->
        Array.iteri
          (fun l g ->
            if not (Network.link_up part.Shard.net l) then begin
              incr down_links;
              check Alcotest.int "the down link" 3 g
            end)
          part.Shard.links;
        Array.iteri
          (fun l g ->
            if not (Network.res_up part.Shard.net l) then begin
              incr down_res;
              check Alcotest.int "the down res" 5 g
            end)
          part.Shard.ress)
      t.Shard.parts;
    check Alcotest.int "one down link mirrored" 1 !down_links;
    check Alcotest.int "one down res mirrored" 1 !down_res

let test_partition_rejects_circuits () =
  let net = Builders.multiplane ~planes:2 (Builders.omega 4) in
  (match Builders.route_unique net ~proc:0 ~res:1 with
  | Some links -> ignore (Network.establish net links)
  | None -> Alcotest.fail "route on empty net");
  match Shard.partition net with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "partition accepted a network with live circuits"

(* --- Domain_pool ---------------------------------------------------------- *)

let test_pool_run_tasks () =
  List.iter
    (fun workers ->
      let pool = Domain_pool.create workers in
      let n = 97 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let tasks = Array.init n (fun i () -> Atomic.incr hits.(i)) in
      Domain_pool.run_tasks pool tasks;
      (* [start] returns at once; [finish] runs what no worker claimed
         and waits for the rest. A pool of one runs everything there. *)
      Domain_pool.start pool tasks;
      if workers = 1 then
        check Alcotest.int "a pool of one runs no task before finish" n
          (Array.fold_left (fun acc a -> acc + Atomic.get a) 0 hits);
      Domain_pool.finish pool;
      Domain_pool.shutdown pool;
      Array.iteri
        (fun i a ->
          check Alcotest.int
            (Printf.sprintf "%d workers: task %d ran once per batch" workers i)
            2 (Atomic.get a))
        hits)
    [ 1; 2; 4 ]

(* Thousands of batches through the spin-then-park handoff, in four
   patterns: back to back (the waiting side is still spinning); after a
   sleep past the spin budget (the workers have parked); with one task
   sleeping past it (the caller parks in [finish]); and with the caller
   sleeping between [start] and [finish] (the workers finish first). A
   lost wake-up hangs here. *)
let test_pool_handoff_soak () =
  let nap () = Unix.sleepf 2e-4 in
  List.iter
    (fun workers ->
      let pool = Domain_pool.create workers in
      let runs = Atomic.make 0 in
      let batches = 3000 in
      for k = 1 to batches do
        let tasks =
          Array.init 4 (fun i () ->
              if k mod 8 = 6 && i = 3 then nap ();
              Atomic.incr runs)
        in
        if k mod 8 = 5 then nap ();
        Domain_pool.start pool tasks;
        if k mod 8 = 7 then nap ();
        Domain_pool.finish pool
      done;
      Domain_pool.shutdown pool;
      check Alcotest.int
        (Printf.sprintf "%d workers: every task ran once" workers)
        (4 * batches) (Atomic.get runs))
    [ 2; 4 ]

let test_pool_exception () =
  let pool = Domain_pool.create 2 in
  check Alcotest.bool "exception propagates" true
    (try
       Domain_pool.run_tasks pool
         [| (fun () -> ()); (fun () -> failwith "boom"); (fun () -> ()) |];
       false
     with Failure m -> m = "boom");
  (* A started batch keeps a task's exception for [finish], after every
     other task has run. *)
  let ran = Atomic.make 0 in
  Domain_pool.start pool
    (Array.init 8 (fun i () ->
         if i = 5 then failwith "late" else Atomic.incr ran));
  check Alcotest.bool "a started batch raises at finish" true
    (try
       Domain_pool.finish pool;
       false
     with Failure m -> m = "late");
  check Alcotest.int "every other task ran" 7 (Atomic.get ran);
  (* The pool survives a failed batch. *)
  let ok = ref false in
  Domain_pool.run_tasks pool [| (fun () -> ok := true) |];
  check Alcotest.bool "pool usable after failure" true !ok;
  (* The pool keeps one batch: a second start before its finish, a
     finish with nothing started and a start after shutdown are
     refused. *)
  let refused what f =
    check Alcotest.bool what true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  Domain_pool.start pool [| (fun () -> ()) |];
  refused "a second batch in flight" (fun () -> Domain_pool.start pool [||]);
  Domain_pool.finish pool;
  refused "finish with no batch in flight" (fun () -> Domain_pool.finish pool);
  Domain_pool.shutdown pool;
  refused "start after shutdown" (fun () -> Domain_pool.start pool [||])

(* --- Serve: merged differential ------------------------------------------- *)

(* One logged pre-commit cycle of one shard, in global terms. *)
type cycle_log = {
  cl_time : int;
  cl_requests : int list;
  cl_free : int list;
  cl_circuits : int list list;
  cl_down_links : int list;
  cl_down_boxes : int list;
  cl_down_res : int list;
  cl_allocated : int;
}

(* Serve a faulty trace and, for every slot where any shard cycled,
   replay the union of the shards' pre-commit snapshots onto a fresh
   copy of the merged network and run one from-scratch Dinic over the
   union request/free sets. Disjointness is what makes Σ per-shard
   allocations equal that single merged max flow; shards that did not
   cycle at the slot contribute zero flow (their pending requests were
   left blocked by their own previous maximal cycle and nothing changed
   since — any state change is an event, and events trigger cycles). *)
let run_merged_differential net ~domains ~seed ~slots ~with_faults =
  let trace =
    let base =
      Workload.synthesize ~deadline_slack:25 ~cancel_prob:0.05
        (Prng.create seed) net ~slots ~arrival_prob:0.3
    in
    if not with_faults then base
    else
      let sched =
        Fault.inject (Prng.create (seed + 1000)) net ~horizon:slots ~mtbf:60.
          ~mttr:8.
      in
      Workload.sort_trace (base @ Workload.fault_events sched)
  in
  let shards_seen = ref 0 in
  let logs = ref [] and logs_mu = Mutex.create () in
  let hook parts ~shard:si snapshot (info : Engine.cycle_info) =
    let part = parts.(si) in
    let glink l = part.Shard.links.(l) in
    let entry =
      {
        cl_time = info.Engine.time;
        cl_requests =
          List.map (fun p -> part.Shard.procs.(p)) info.Engine.requests;
        cl_free = List.map (fun r -> part.Shard.ress.(r)) info.Engine.free;
        cl_circuits =
          List.map
            (fun (_, links) -> List.map glink links)
            (Network.circuits snapshot);
        cl_down_links =
          List.filter_map
            (fun l -> if Network.link_up snapshot l then None else Some (glink l))
            (List.init (Network.n_links snapshot) Fun.id);
        cl_down_boxes =
          List.filter_map
            (fun b ->
              if Network.box_up snapshot b then None
              else Some part.Shard.boxes.(b))
            (List.init (Network.n_boxes snapshot) Fun.id);
        cl_down_res =
          List.filter_map
            (fun r ->
              if Network.res_up snapshot r then None else Some part.Shard.ress.(r))
            (List.init (Network.n_res snapshot) Fun.id);
        cl_allocated = info.Engine.allocated;
      }
    in
    Mutex.lock logs_mu;
    logs := entry :: !logs;
    Mutex.unlock logs_mu
  in
  let report =
    (* The hook needs the shard parts, which create computes — tie the
       knot through a ref; no event is routed before create returns. *)
    let parts = ref [||] in
    let t =
      match
        Serve.create ~domains
          ~cycle_hook:(fun ~shard snapshot info ->
            hook !parts ~shard snapshot info)
          net
      with
      | Error e -> Alcotest.fail e
      | Ok t -> t
    in
    parts := (Serve.shard t).Shard.parts;
    shards_seen := Shard.n_shards (Serve.shard t);
    List.iter (Serve.feed t) trace;
    Serve.drain t;
    Serve.report t
  in
  (* Group cycle logs by slot and compare Σ allocated against one Dinic
     on the reconstructed merged snapshot. *)
  let by_slot = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace by_slot e.cl_time
        (e :: (Option.value ~default:[] (Hashtbl.find_opt by_slot e.cl_time))))
    !logs;
  let cycles_checked = ref 0 in
  Hashtbl.iter
    (fun slot entries ->
      let merged = Network.copy net in
      Network.clear_circuits merged;
      List.iter
        (fun e ->
          List.iter
            (fun links -> ignore (Network.establish_unchecked merged links))
            e.cl_circuits;
          List.iter (fun l -> Network.set_link_up merged l false) e.cl_down_links;
          List.iter (fun b -> Network.set_box_up merged b false) e.cl_down_boxes;
          List.iter (fun r -> Network.set_res_up merged r false) e.cl_down_res)
        entries;
      let requests = List.concat_map (fun e -> e.cl_requests) entries in
      let free = List.concat_map (fun e -> e.cl_free) entries in
      let engine_total =
        List.fold_left (fun acc e -> acc + e.cl_allocated) 0 entries
      in
      let reference = Transform1.schedule merged ~requests ~free in
      cycles_checked := !cycles_checked + List.length entries;
      check Alcotest.int
        (Printf.sprintf "%s seed %d slot %d: merged dinic = shard sum"
           (Network.name net) seed slot)
        reference.Transform1.allocated engine_total)
    by_slot;
  (!cycles_checked, !shards_seen, report)

let test_serve_merged_differential () =
  let total = ref 0 in
  List.iter
    (fun (net, domains) ->
      List.iter
        (fun seed ->
          let cycles, _, report =
            run_merged_differential net ~domains ~seed ~slots:120
              ~with_faults:true
          in
          total := !total + cycles;
          check Alcotest.bool
            (Printf.sprintf "%s seed %d saw cycles" (Network.name net) seed)
            true (cycles > 0);
          check Alcotest.bool "faults were exercised" true
            (report.Serve.faults > 0))
        [ 7; 8 ])
    [
      (Builders.multiplane ~planes:4 (Builders.omega 8), 4);
      (Builders.multiplane ~planes:2 (Builders.clos ~m:3 ~n:2 ~r:3), 2);
      (Builders.multiplane ~planes:3 (Builders.butterfly 8), 3);
    ];
  check Alcotest.bool
    (Printf.sprintf "at least 300 differential cycles overall (got %d)" !total)
    true (!total >= 300)

let test_serve_single_shard_matches_engine () =
  (* On a connected network serve degrades to one shard; its report must
     match the plain engine's on the same trace. *)
  let net = Builders.omega 8 in
  let trace =
    Workload.synthesize (Prng.create 3) net ~slots:80 ~arrival_prob:0.4
  in
  let engine = Engine.run net trace in
  match Serve.run ~domains:1 net trace with
  | Error e -> Alcotest.fail e
  | Ok serve ->
    check Alcotest.int "allocated" engine.Engine.allocated serve.Serve.allocated;
    check Alcotest.int "completed" engine.Engine.completed serve.Serve.completed;
    check Alcotest.int "cycles" engine.Engine.cycles serve.Serve.cycles;
    check Alcotest.int "horizon" engine.Engine.horizon serve.Serve.horizon;
    check Alcotest.int "no borrowing with one shard" 0 serve.Serve.borrows

(* --- Serve: domain determinism -------------------------------------------- *)

let serve_trajectory net ~domains trace =
  let cells = Array.make 64 [] in
  (* Per-shard buffers: hooks only append to their own cell, so the
     parallel advance phase never races. *)
  let t =
    match
      Serve.create ~domains
        ~cycle_hook:(fun ~shard _snapshot info ->
          cells.(shard) <-
            (info.Engine.time, info.Engine.allocated) :: cells.(shard))
        net
    with
    | Error e -> Alcotest.fail e
    | Ok t -> t
  in
  List.iter (Serve.feed t) trace;
  Serve.drain t;
  let report = Serve.report t in
  let trajectory =
    Array.to_list cells
    |> List.mapi (fun si entries ->
           List.rev_map (fun (time, n) -> (si, time, n)) entries)
    |> List.concat
    |> List.sort compare
  in
  (trajectory, report)

let determinism_arb =
  QCheck.make
    ~print:(fun (topo, seed, prob) ->
      Printf.sprintf "topo=%d seed=%d arrival=%.2f" topo seed prob)
    QCheck.Gen.(
      triple (int_range 0 2) (int_range 0 1000)
        (map (fun p -> float_of_int p /. 100.) (int_range 20 50)))

let test_determinism_qcheck =
  QCheck.Test.make ~count:8 ~name:"domains=1 and domains=N trajectories agree"
    determinism_arb (fun (topo, seed, prob) ->
      let net =
        match topo with
        | 0 -> Builders.multiplane ~planes:4 (Builders.omega 8)
        | 1 -> Builders.multiplane ~planes:3 (Builders.butterfly 8)
        | _ -> Builders.multiplane ~planes:2 (Builders.clos ~m:3 ~n:2 ~r:3)
      in
      let slots = 110 in
      let trace =
        let base =
          Workload.synthesize ~deadline_slack:20 ~cancel_prob:0.05
            (Prng.create seed) net ~slots ~arrival_prob:prob
        in
        let sched =
          Fault.inject (Prng.create (seed + 17)) net ~horizon:slots ~mtbf:70.
            ~mttr:10.
        in
        Workload.sort_trace (base @ Workload.fault_events sched)
      in
      let t1, r1 = serve_trajectory net ~domains:1 trace in
      let t4, r4 = serve_trajectory net ~domains:4 trace in
      (* The shard layout is by component, independent of the domain
         count, so the trajectories must agree cycle for cycle — shard
         ids included. *)
      if t1 <> t4 then
        QCheck.Test.fail_reportf "trajectories diverge (%d vs %d cycles)"
          (List.length t1) (List.length t4);
      (* ...and so must the merged accounting, modulo wall time and the
         pool size actually granted. *)
      r1.Serve.allocated = r4.Serve.allocated
      && r1.Serve.completed = r4.Serve.completed
      && r1.Serve.cycles = r4.Serve.cycles
      && r1.Serve.borrows = r4.Serve.borrows
      && r1.Serve.starved = r4.Serve.starved
      && r1.Serve.faults = r4.Serve.faults
      && r1.Serve.victims = r4.Serve.victims)

(* --- Serve: borrowing ------------------------------------------------------ *)

let test_serve_borrowing () =
  (* Two Omega-4 planes. Saturate plane 0's four resource ports with
     long-service tasks, then land one more arrival on plane 0: the
     router must re-target it to idle plane 1 instead of queueing it. *)
  let net = Builders.multiplane ~planes:2 (Builders.omega 4) in
  let arrive t id proc service =
    Workload.Arrive { t; id; proc; service; deadline = None; priority = 0 }
  in
  let trace =
    [
      arrive 0 0 0 50; arrive 0 1 1 50; arrive 0 2 2 50; arrive 0 3 3 50;
      arrive 3 4 0 5;
    ]
  in
  match Serve.run ~domains:2 net trace with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check Alcotest.int "the overflow arrival was borrowed" 1 r.Serve.borrows;
    check Alcotest.int "all five tasks got circuits" 5 r.Serve.allocated;
    check Alcotest.int "nothing starved" 0 r.Serve.starved

let test_serve_starvation () =
  (* Same setup but both planes saturated: no donor has headroom, so the
     overflow arrival stays home and is counted as starved. *)
  let net = Builders.multiplane ~planes:2 (Builders.omega 4) in
  let arrive t id proc service =
    Workload.Arrive { t; id; proc; service; deadline = None; priority = 0 }
  in
  let trace =
    List.init 8 (fun p -> arrive 0 p p 50) @ [ arrive 3 100 0 5 ]
  in
  match Serve.run ~domains:2 net trace with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check Alcotest.int "no donor found" 0 r.Serve.borrows;
    check Alcotest.int "one starved arrival" 1 r.Serve.starved;
    (* The starved arrival queues at home and is served once the pool
       frees up — all nine tasks get circuits eventually. *)
    check Alcotest.int "all nine circuits eventually" 9 r.Serve.allocated

let test_serve_probe_fresh_each_flush () =
  (* A donor's headroom is probed once per flush, never carried over:
     plane 1 lends at slot 3, fills up in that same slot, and must turn
     the next overflow arrival (slot 10) down. *)
  let net = Builders.multiplane ~planes:2 (Builders.omega 4) in
  let arrive t id proc =
    Workload.Arrive { t; id; proc; service = 50; deadline = None; priority = 0 }
  in
  let trace =
    [ arrive 0 0 0; arrive 0 1 1; arrive 0 2 2; arrive 0 3 3;
      arrive 3 4 0; arrive 3 5 5; arrive 3 6 6; arrive 3 7 7;
      arrive 10 8 1 ]
  in
  match Serve.run ~domains:2 net trace with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check Alcotest.int "plane 1 lent once" 1 r.Serve.borrows;
    check Alcotest.int "then had no room" 1 r.Serve.starved

let test_serve_rejects_token () =
  let net = Builders.multiplane ~planes:2 (Builders.omega 4) in
  match
    Serve.create ~config:(Engine.Config.v ~mode:Engine.Token ()) ~domains:2 net
  with
  | Error e ->
    check Alcotest.bool "error names token mode" true
      (String.length e >= 12 && String.sub e 0 12 = "Serve.create")
  | Ok _ -> Alcotest.fail "serve accepted token mode"

(* --- Engine.headroom: the warm borrowing probe ----------------------------- *)

(* The shards of the serving benchmark's overload network (4 planes of
   omega:32), each driven alone by an overloaded trace with priorities,
   deadlines, cancels, faults and a flap-quarantining guard. *)
let probe_shards () =
  match Shard.partition (Builders.multiplane ~planes:4 (Builders.omega 32)) with
  | Error e -> Alcotest.fail e
  | Ok sh -> Array.map (fun part -> part.Shard.net) sh.Shard.parts

let probe_config discipline =
  Engine.Config.v ~discipline ~transmission_time:2
    ~guard:
      (Some
         (Policy.v ~queue_bound:4 ~shed_policy:Policy.Deadline_aware ~flap_k:2
            ~flap_window:25 ()))
    ()

let probe_trace net ~seed =
  let slots = 120 in
  let base =
    Workload.synthesize ~deadline_slack:24 ~cancel_prob:0.05 ~priority_levels:4
      (Prng.create seed) net ~slots ~arrival_prob:0.2
  in
  let faults =
    Fault.inject (Prng.create (seed + 1)) net ~horizon:slots ~mtbf:150.
      ~mttr:10.
  in
  Workload.sort_trace (base @ Workload.fault_events faults)

(* Feeds the whole trace, then advances one slot at a time, calling
   [at_boundary] between slots, and drains. *)
let drive_slots ?cycle_hook ~config net trace ~at_boundary =
  let e = Engine.create ?cycle_hook ~config net in
  List.iter (Engine.feed e) trace;
  let last = List.fold_left (fun acc ev -> max acc (Workload.event_time ev)) 0 trace in
  for slot = 0 to last do
    Engine.advance e ~upto:slot;
    at_boundary e
  done;
  Engine.drain e;
  e

let test_headroom_matches_from_scratch () =
  let probes = ref 0 and limited = ref 0 and unlimited = ref 0 in
  let quarantines = ref 0 in
  List.iter
    (fun discipline ->
      Array.iteri
        (fun si net ->
          let trace = probe_trace net ~seed:(31 + si) in
          let at_boundary e =
            let warm = Engine.headroom e
            and reference = Engine.headroom_from_scratch e in
            incr probes;
            (match warm with
            | Some (_, true, _) -> incr limited
            | Some (_, false, _) -> incr unlimited
            | None -> ());
            if warm <> reference then
              let show = function
                | None -> "none"
                | Some (v, fl, p) -> Printf.sprintf "(%d, %b, p%d)" v fl p
              in
              Alcotest.failf "%s shard %d, slot %d: warm %s, from scratch %s"
                (Engine.discipline_name discipline)
                si (Engine.served_upto e) (show warm) (show reference)
          in
          let e =
            drive_slots ~config:(probe_config discipline) net trace ~at_boundary
          in
          quarantines := !quarantines + (Engine.report e).Engine.quarantines)
        (probe_shards ()))
    [ Engine.Uniform; Engine.Priority ];
  (* The runs must reach every kind of answer, and the guard must have
     quarantined something, or the comparison proves little. *)
  check Alcotest.bool "fabric-limited donors probed" true (!limited > 0);
  check Alcotest.bool "fabric-unlimited donors probed" true (!unlimited > 0);
  check Alcotest.bool "no-headroom answers probed" true
    (!limited + !unlimited < !probes);
  check Alcotest.bool "quarantines happened" true (!quarantines > 0)

(* Probing at every slot boundary must not change one bit of what the
   engine does or could serialize: the cycle log, the report, and the
   snapshot (which carries the warm solver's dirty flag and work
   counters) all equal those of a run that never probes. *)
let test_headroom_leaves_no_trace () =
  List.iter
    (fun discipline ->
      let net = (probe_shards ()).(1) in
      let trace = probe_trace net ~seed:77 in
      let run ~probe =
        let log = Buffer.create 4096 and snaps = Buffer.create 4096 in
        let cycle_hook _net (info : Engine.cycle_info) =
          Buffer.add_string log
            (Printf.sprintf "%d:%s/%s->%s w%d%s\n" info.Engine.time
               (String.concat "," (List.map string_of_int info.Engine.requests))
               (String.concat "," (List.map string_of_int info.Engine.free))
               (String.concat ","
                  (List.map
                     (fun (p, r) -> Printf.sprintf "%d-%d" p r)
                     info.Engine.mapping))
               info.Engine.work
               (if info.Engine.skipped then " skipped" else ""))
        in
        let at_boundary e =
          if probe then ignore (Engine.headroom e);
          Buffer.add_string snaps (Json.to_string (Engine.snapshot e));
          Buffer.add_char snaps '\n'
        in
        let e =
          drive_slots ~cycle_hook ~config:(probe_config discipline) net trace
            ~at_boundary
        in
        (Buffer.contents log, Engine.report e, Buffer.contents snaps)
      in
      let log0, report0, snaps0 = run ~probe:false in
      let log1, report1, snaps1 = run ~probe:true in
      let what = Engine.discipline_name discipline in
      check Alcotest.string (what ^ ": cycle log") log0 log1;
      check Alcotest.bool (what ^ ": report") true (report0 = report1);
      check Alcotest.bool (what ^ ": snapshots at every boundary") true
        (snaps0 = snaps1))
    [ Engine.Uniform; Engine.Priority ]

(* --- Serve.Task_map: differential against sort-and-merge ------------------ *)

(* The reference is how the checkpoint derived its runs before the map
   was held as runs: collect (id, shard) pairs, sort, merge maximal
   runs of consecutive ids on one shard. *)
let reference_runs pairs =
  List.sort compare pairs
  |> List.fold_left
       (fun acc (id, s) ->
         match acc with
         | (first, count, s') :: rest when s' = s && first + count = id ->
           (first, count + 1, s) :: rest
         | _ -> (id, 1, s) :: acc)
       []
  |> List.rev

let map_runs m =
  Serve.Task_map.fold_runs m (fun first count s acc -> (first, count, s) :: acc) []

type order = Ascending | Descending | Shuffled

(* An id stream: contiguous or gapped ids in one of three orders, each
   on a shard that sticks for a while so that runs form. *)
let task_map_arb =
  let open QCheck.Gen in
  let gen =
    let* order = oneofl [ Ascending; Descending; Shuffled ] in
    let* gapped = bool in
    let* n = int_range 0 50 in
    let* start = int_range (-5) 40 in
    let* steps = list_repeat n (if gapped then int_range 1 4 else return 1) in
    let* switches = list_repeat n (pair (int_range 0 2) (int_range 0 2)) in
    let* keys = list_repeat n int in
    let ids =
      List.rev (snd (List.fold_left (fun (id, acc) d -> (id + d, id :: acc))
                       (start, []) steps))
    in
    let shards =
      List.rev
        (snd
           (List.fold_left
              (fun (s, acc) (roll, s') ->
                let s = if roll = 0 then s' else s in
                (s, s :: acc))
              (0, []) switches))
    in
    let stream = List.combine ids shards in
    return
      (match order with
      | Ascending -> stream
      | Descending -> List.rev stream
      | Shuffled ->
        List.map snd (List.sort compare (List.combine keys stream)))
  in
  QCheck.make gen
    ~print:(fun stream ->
      String.concat " "
        (List.map (fun (id, s) -> Printf.sprintf "%d@%d" id s) stream))

let test_task_map_qcheck =
  QCheck.Test.make ~count:300 ~name:"Task_map = sort-and-merge reference"
    task_map_arb (fun stream ->
      let m = Serve.Task_map.create () in
      let ids = List.map fst stream in
      let lo = List.fold_left min 0 ids - 2
      and hi = List.fold_left max 0 ids + 2 in
      let added = Hashtbl.create 64 in
      List.iteri
        (fun step (id, s) ->
          Serve.Task_map.add m id s;
          Hashtbl.replace added id s;
          (* Every id in range, added or not — gaps and ids still to
             come included. *)
          for probe = lo to hi do
            let want = Hashtbl.find_opt added probe in
            if Serve.Task_map.find m probe <> want then
              QCheck.Test.fail_reportf "step %d: find %d" step probe;
            if Serve.Task_map.mem m probe <> (want <> None) then
              QCheck.Test.fail_reportf "step %d: mem %d" step probe;
            if want <> None then
              match Serve.Task_map.add m probe 0 with
              | () -> QCheck.Test.fail_reportf "step %d: re-added %d" step probe
              | exception Invalid_argument _ -> ()
          done;
          if map_runs m <> reference_runs (List.of_seq (Hashtbl.to_seq added))
          then QCheck.Test.fail_reportf "step %d: runs differ" step)
        stream;
      true)

(* Ids that arrive below earlier ones — across slots and inside one —
   are still checked for repeats, still chased by cancels, and still
   written as the same maximal runs. *)
let test_out_of_order_ids () =
  let net = Builders.multiplane ~planes:2 (Builders.omega 4) in
  let arrive t id proc =
    Workload.Arrive { t; id; proc; service = 2; deadline = None; priority = 0 }
  in
  let t =
    match Serve.create ~domains:1 net with
    | Error e -> Alcotest.fail e
    | Ok t -> t
  in
  let fed ev =
    match Serve.feed t ev with
    | () -> true
    | exception Invalid_argument _ -> false
  in
  let outcomes =
    List.map fed
      [ arrive 0 10 0; arrive 0 11 1;
        arrive 1 5 2; arrive 1 6 3; arrive 1 12 4;
        Workload.Cancel { t = 2; id = 5 }; arrive 2 4 5;
        arrive 2 6 6 (* routed *); arrive 2 4 7 (* buffered *) ]
  in
  check Alcotest.(list bool) "repeats rejected, routed or buffered"
    [ true; true; true; true; true; true; true; false; false ]
    outcomes;
  let j = Serve.snapshot t in
  check Alcotest.string "strays merged into maximal runs"
    "[[4,1,1],[5,2,0],[10,2,0],[12,1,1]]"
    (Json.to_string (Option.get (Json.member "task_home" j)));
  Serve.abort t;
  match Serve.restore ~domains:1 net j with
  | Error e -> Alcotest.failf "restore: %s" e
  | Ok t ->
    check Alcotest.(list bool) "the restored map rejects repeats too"
      [ false; false; true ]
      (List.map
         (fun ev ->
           match Serve.feed t ev with
           | () -> true
           | exception Invalid_argument _ -> false)
         [ arrive 3 5 0; arrive 3 12 1; arrive 3 13 2 ]);
    Serve.abort t

(* --- Serve: checkpoint task_home runs -------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* A real checkpoint with borrowed tasks in it, and a way to swap one of
   its top-level fields. *)
let borrowing_checkpoint () =
  let net = Builders.multiplane ~planes:2 (Builders.omega 4) in
  let arrive t id proc service =
    Workload.Arrive { t; id; proc; service; deadline = None; priority = 0 }
  in
  let t =
    match Serve.create ~domains:1 net with
    | Error e -> Alcotest.fail e
    | Ok t -> t
  in
  List.iter (Serve.feed t)
    [ arrive 0 0 0 50; arrive 0 1 1 50; arrive 0 2 2 50; arrive 0 3 3 50;
      arrive 3 4 0 5; arrive 3 5 5 5; arrive 4 9 6 5 ];
  let j = Serve.snapshot t in
  Serve.abort t;
  (net, j)

let with_field j k v =
  match j with
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fields)
  | _ -> Alcotest.fail "checkpoint is not an object"

let test_checkpoint_task_home_runs () =
  let net, j = borrowing_checkpoint () in
  let run a b c = Json.Arr [ Json.Num a; Json.Num b; Json.Num c ] in
  (* Ids 0-3 stay home on shard 0, 4 is borrowed by shard 1, 5 lives on
     shard 1, 9 on shard 1: three runs, the middle one two ids long. *)
  check Alcotest.string "task_home as id runs" "[[0,4,0],[4,2,1],[9,1,1]]"
    (Json.to_string (Option.get (Json.member "task_home" j)));
  (match Serve.restore ~domains:1 net j with
  | Ok t ->
    check Alcotest.string "restore then snapshot is the identity"
      (Json.to_string j)
      (Json.to_string (Serve.snapshot t));
    Serve.abort t
  | Error e -> Alcotest.failf "restore: %s" e);
  (* Restore coalesces runs a document left split, so it writes back
     what a map built id by id would. *)
  (match
     Serve.restore ~domains:1 net
       (with_field j "task_home" (Json.Arr [ run 0. 2. 0.; run 2. 3. 0. ]))
   with
  | Ok t ->
    check Alcotest.string "adjacent runs on one shard coalesce" "[[0,5,0]]"
      (Json.to_string (Option.get (Json.member "task_home" (Serve.snapshot t))));
    Serve.abort t
  | Error e -> Alcotest.failf "restore: %s" e);
  let rejects what doc =
    match Serve.restore ~domains:1 net doc with
    | Ok t ->
      Serve.abort t;
      Alcotest.failf "%s: restore accepted it" what
    | Error m -> m
  in
  let v1 =
    rejects "v1 document"
      (with_field
         (with_field j "schema" (Json.Str "rsin-serve-checkpoint/v1"))
         "task_home"
         (Json.Arr [ Json.Obj [ ("task", Json.Num 0.); ("shard", Json.Num 0.) ] ]))
  in
  check Alcotest.bool "the v1 error names both schemas" true
    (contains v1 "rsin-serve-checkpoint/v1" && contains v1 "rsin-serve-checkpoint/v2");
  (* The largest float at or below max_int (2^62 - 1): far past 2^53,
     so it is no exact integer and the run is malformed. *)
  let top = ldexp 1. 62 -. 512. in
  List.iter
    (fun (what, events, runs, reason) ->
      let doc =
        with_field (with_field j "task_home" (Json.Arr runs)) "events"
          (Json.Num events)
      in
      let m = rejects what doc in
      if not (contains m reason) then
        Alcotest.failf "%s: rejected for %S, want %S" what m reason)
    [ ("count 0", 7., [ run 0. 0. 0. ], "count below 1");
      ("negative count", 7., [ run 0. (-3.) 0. ], "count below 1");
      ("overlapping runs", 7., [ run 0. 4. 0.; run 3. 2. 1. ], "not ascending");
      ("descending runs", 7., [ run 4. 2. 1.; run 0. 4. 0. ], "not ascending");
      ("shard outside the partition", 7., [ run 0. 4. 2. ], "outside");
      ("negative shard", 7., [ run 0. 4. (-1.) ], "outside");
      ("counts past events", 7., [ run 0. 4. 0.; run 4. 1000. 1. ], "than events");
      ("run past max_int", 1e6, [ run 0. 4. 0.; run top 2000. 1. ], "malformed");
      ("not a triple", 7., [ run 0. 4. 0.; Json.Arr [ Json.Num 4.; Json.Num 2. ] ],
       "malformed");
      ("non-integer id", 7., [ run 0.5 4. 0. ], "malformed") ];
  (* A slot cursor that is neither null nor an integer must be refused:
     accepted, the router would buffer events for slots its shards have
     already served, and the next flush would raise. *)
  let m = rejects "string cur_slot" (with_field j "cur_slot" (Json.Str "soon")) in
  check Alcotest.bool "the cur_slot error names the field" true
    (contains m "cur_slot")

(* --- A solver name the registry no longer holds ----------------------------- *)

(* "mincost-csr" left the registry. A config or a serve checkpoint that
   names it, at the top or in one shard's engine document, comes back
   as an Error that lists the registry, and nothing raises. *)
let test_retired_solver_refused () =
  let registry = String.concat ", " (Rsin_flow.Solver.names ()) in
  let names_registry what = function
    | Ok () -> Alcotest.failf "%s: accepted a retired solver" what
    | Error m ->
      if not (contains m "\"mincost-csr\"" && contains m registry) then
        Alcotest.failf "%s: refused with %S, want the registry (%s)" what m
          registry
  in
  let retired config = with_field config "solver" (Json.Str "mincost-csr") in
  names_registry "Config.of_json"
    (Result.map ignore
       (Engine.Config.of_json (retired (Engine.Config.to_json Engine.Config.default))));
  let net, j = borrowing_checkpoint () in
  let restore doc =
    Result.map Serve.abort (Serve.restore ~domains:1 net doc)
  in
  names_registry "Serve.restore, router config"
    (restore (with_field j "config" (retired (Option.get (Json.member "config" j)))));
  let shards =
    match Json.member "shards" j with
    | Some (Json.Arr (first :: rest)) ->
      Json.Arr
        (with_field first "config"
           (retired (Option.get (Json.member "config" first)))
        :: rest)
    | _ -> Alcotest.fail "checkpoint without shards"
  in
  names_registry "Serve.restore, shard config" (restore (with_field j "shards" shards))

(* --- Serve: feed-time validation ------------------------------------------ *)

(* Feed [trace] event by event, recording which events Serve.feed
   rejects, then drain and return the report. *)
let feed_all net trace =
  match Serve.create ~domains:1 net with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let rejected =
      List.filter
        (fun ev ->
          match Serve.feed t ev with
          | () -> false
          | exception Invalid_argument _ -> true)
        trace
    in
    Serve.drain t;
    check Alcotest.(result unit string) "accounting" (Ok ())
      (Serve.check_accounting t);
    (rejected, Serve.report t)

let arrive t id proc =
  Workload.Arrive { t; id; proc; service = 2; deadline = None; priority = 0 }

(* A bad processor or fault element buffered among valid events used to
   raise halfway through the slot's flush and lose the events behind it.
   Rejected at feed time, it costs only itself. *)
let test_feed_rejects_out_of_range () =
  let net = Builders.omega 8 in
  let bad_proc = arrive 0 2 999 in
  let bad_fault =
    Workload.Fault { t = 0; clock = None; element = Fault.Link 9999 }
  in
  let bad_box =
    Workload.Repair { t = 1; clock = None; element = Fault.Box (-1) }
  in
  let bad_res = Workload.Fault { t = 1; clock = None; element = Fault.Res 8 } in
  let trace =
    [ arrive 0 1 0; bad_proc; arrive 0 3 1; bad_fault; arrive 1 4 2; bad_box;
      bad_res; arrive 2 5 3 ]
  in
  let rejected, r = feed_all net trace in
  check Alcotest.int "exactly the four bad events rejected" 4
    (List.length rejected);
  check Alcotest.bool "the right ones" true
    (List.for_all (fun ev -> List.memq ev rejected)
       [ bad_proc; bad_fault; bad_box; bad_res ]);
  check Alcotest.int "every valid arrival counted" 4 r.Serve.arrivals;
  check Alcotest.int "every valid arrival served" 4 r.Serve.completed;
  check Alcotest.int "every valid event routed" 4 r.Serve.events

(* A repeated task id used to enter the engine twice and break the
   accounting invariant. It is rejected at feed time, whether the first
   arrival is still buffered or already routed; a cancel then withdraws
   the one task that id names. *)
let test_feed_rejects_duplicate_id () =
  let net = Builders.omega 8 in
  let cancel t id = Workload.Cancel { t; id } in
  let trace =
    [ Workload.Arrive
        { t = 0; id = 7; proc = 0; service = 5; deadline = None; priority = 0 };
      arrive 0 7 1; cancel 0 7; arrive 1 8 2; arrive 3 7 3; arrive 3 9 4 ]
  in
  let rejected, r = feed_all net trace in
  check Alcotest.int "both repeats rejected" 2 (List.length rejected);
  check Alcotest.int "one arrival per id" 3 r.Serve.arrivals;
  check Alcotest.int "the cancel withdrew task 7" 1 r.Serve.cancelled;
  check Alcotest.int "the others were served" 2 r.Serve.completed

(* --- Serve: the pipelined advance ----------------------------------------- *)

exception Raised_at of int * string

(* One arrival per slot, so every slot cycles. A cycle hook that raises
   at slot 5 does so in the advance the slot-6 feed starts on the pool;
   the slot-7 feed joins it and raises, at every domain count. At slot
   10 the advance is joined by [drain]. [abort] stops the instance
   either way. *)
let test_serve_engine_exception () =
  let net = Builders.multiplane ~planes:2 (Builders.omega 4) in
  let trace =
    List.init 12 (fun s ->
        Workload.Arrive
          { t = s; id = s; proc = s mod 8; service = 2; deadline = None;
            priority = 0 })
  in
  List.iter
    (fun (domains, bad, want) ->
      let t =
        match
          Serve.create ~domains
            ~cycle_hook:(fun ~shard:_ _ info ->
              if info.Engine.time = bad then failwith "hook")
            net
        with
        | Error e -> Alcotest.fail e
        | Ok t -> t
      in
      let got =
        match
          List.iter
            (fun ev ->
              try Serve.feed t ev
              with Failure m -> raise (Raised_at (Workload.event_time ev, m)))
            trace;
          Serve.drain t
        with
        | () -> "nothing raised"
        | exception Raised_at (slot, m) ->
          Printf.sprintf "feed of slot %d: %s" slot m
        | exception Failure m -> "drain: " ^ m
      in
      check Alcotest.string
        (Printf.sprintf "domains %d, hook fails at slot %d" domains bad)
        want got;
      Serve.abort t;
      check Alcotest.int "the aborted instance still reports" domains
        (Serve.report t).Serve.domains)
    [ (1, 5, "feed of slot 7: hook"); (2, 5, "feed of slot 7: hook");
      (1, 10, "drain: hook"); (2, 10, "drain: hook") ]

(* A snapshot mid-slot routes the events buffered so far and starts no
   advance, so the slot's later events still reach shards that have not
   served it: the run ends on the same report and the same checkpoint
   bytes as a run that never took the snapshot. *)
let test_serve_mid_slot_snapshot () =
  let net = Builders.multiplane ~planes:2 (Builders.omega 8) in
  let trace =
    Workload.synthesize ~deadline_slack:10 ~cancel_prob:0.1 (Prng.create 5)
      net ~slots:40 ~arrival_prob:0.4
  in
  let mid = 20 in
  let at_mid = List.filter (fun ev -> Workload.event_time ev = mid) trace in
  check Alcotest.bool "the snapshot slot has several events" true
    (List.length at_mid > 1);
  let serve ~domains ~snap =
    match Serve.create ~domains net with
    | Error e -> Alcotest.fail e
    | Ok t ->
      List.iter
        (fun ev ->
          Serve.feed t ev;
          if snap && ev == List.hd at_mid then ignore (Serve.snapshot t))
        trace;
      let bytes = Json.to_string (Serve.snapshot t) in
      Serve.drain t;
      (bytes, { (Serve.report t) with Serve.wall_us = 0. })
  in
  List.iter
    (fun domains ->
      let bytes, report = serve ~domains ~snap:false in
      let bytes', report' = serve ~domains ~snap:true in
      check Alcotest.string
        (Printf.sprintf "domains %d: same checkpoint bytes" domains)
        bytes bytes';
      check Alcotest.bool
        (Printf.sprintf "domains %d: same report" domains)
        true (report = report'))
    [ 1; 2 ]

(* A checkpoint's bytes must not depend on the domain count. The
   serving benchmark's overload configuration
   (four omega:32 planes, priorities, deadlines, cancels, faults, a
   shedding, quarantining guard), checkpointed from the event hook every
   25 slots as the benchmark does every 50. *)
let test_snapshot_bytes_every_domain_count () =
  let net = Builders.multiplane ~planes:4 (Builders.omega 32) in
  let trace = probe_trace net ~seed:3 in
  let checkpoints domains =
    let out = ref [] and inst = ref None in
    let event_hook ~events:_ ~time =
      if time > 0 && time mod 25 = 0 then
        out := Json.to_string (Serve.snapshot (Option.get !inst)) :: !out
    in
    match
      Serve.create ~config:(probe_config Engine.Priority) ~domains ~event_hook net
    with
    | Error e -> Alcotest.fail e
    | Ok t ->
      inst := Some t;
      List.iter (Serve.feed t) trace;
      Serve.drain t;
      List.rev !out
  in
  let one = checkpoints 1 in
  check Alcotest.bool "several checkpoints" true (List.length one >= 4);
  List.iter
    (fun domains ->
      check
        Alcotest.(list string)
        (Printf.sprintf "domains %d: the same bytes" domains)
        one (checkpoints domains))
    [ 2; 4 ]

(* The serving benchmark's overload workload at seed 1, as
   perfbench/workloads.ml builds it, served at one domain. The
   benchmark's twelfth checkpoint lands at slot 600; it and one at slot
   601 are taken in the event hook and weighed. A checkpoint slot set
   overload's slot p99, so a snapshot should allocate about what it
   returns: at most 10% over the words reachable from the document. The
   bytes are pinned by length and digest, as CI pins the benchmark's
   checkpoint sizes. *)
let test_overload_snapshot_words () =
  let seed = 1 and mtbf = 1000. and mttr = 20. in
  let net = Builders.multiplane ~planes:4 (Builders.omega 32) in
  let config =
    Engine.Config.v ~discipline:Engine.Priority ~transmission_time:2
      ~faults:(Some { Engine.Config.mtbf; mttr; granularity = `Slot })
      ~guard:
        (Some
           (Policy.v ~queue_bound:4 ~shed_policy:Policy.Deadline_aware ~seed
              ~flap_k:2 ()))
      ()
  in
  let arrivals =
    Workload.synthesize ~mean_service:4.0 ~deadline_slack:24 ~cancel_prob:0.05
      ~priority_levels:4 (Prng.create seed) net ~slots:1200 ~arrival_prob:0.2
  in
  let horizon =
    List.fold_left (fun acc e -> max acc (Workload.event_time e)) 0 arrivals
  in
  let faults = Fault.inject (Prng.split (Prng.create seed)) net ~horizon ~mtbf ~mttr in
  let trace = Workload.sort_trace (arrivals @ Workload.fault_events faults) in
  let inst = ref None and taken = ref [] in
  let event_hook ~events:_ ~time =
    if time = 600 || time = 601 then begin
      let t = Option.get !inst in
      let doc = ref Json.Null in
      let a = Gc.minor_words () in
      let b = Gc.minor_words () in
      doc := Serve.snapshot t;
      let c = Gc.minor_words () in
      taken := (time, c -. b -. (b -. a), !doc) :: !taken
    end
  in
  (match Serve.create ~config ~domains:1 ~event_hook net with
  | Error e -> Alcotest.fail e
  | Ok t ->
    inst := Some t;
    List.iter (fun ev -> if Workload.event_time ev <= 602 then Serve.feed t ev) trace;
    Serve.abort t);
  let pins =
    [ (600, (102568, "197929858414abc7407e728b55e349ef"));
      (601, (103989, "f555f17b8bb6ade3302cf19d3bc37ce8")) ]
  in
  check Alcotest.(list int) "checkpoints at slots 600 and 601" [ 600; 601 ]
    (List.rev_map (fun (time, _, _) -> time) !taken);
  List.iter
    (fun (time, words, doc) ->
      let reachable = Obj.reachable_words (Obj.repr doc) in
      let bytes = Json.to_string doc in
      let what = Printf.sprintf "slot %d" time in
      if words > 1.10 *. float_of_int reachable then
        Alcotest.failf "%s: snapshot allocated %.0f minor words for a %d-word \
                        document"
          what words reachable;
      check
        Alcotest.(pair int string)
        (what ^ ": bytes") (List.assoc time pins)
        (String.length bytes, Digest.to_hex (Digest.string bytes)))
    !taken

let suite =
  [
    Alcotest.test_case "multiplane shape and isolation" `Quick
      test_multiplane_shape;
    Alcotest.test_case "multiplane flow decomposes" `Quick
      test_multiplane_flow_decomposes;
    Alcotest.test_case "multiplane invalid inputs" `Quick
      test_multiplane_invalid;
    Alcotest.test_case "partition by plane" `Quick test_partition_planes;
    Alcotest.test_case "partition connected -> one shard" `Quick
      test_partition_connected_single;
    Alcotest.test_case "partition mirrors health" `Quick
      test_partition_health_mirror;
    Alcotest.test_case "partition rejects live circuits" `Quick
      test_partition_rejects_circuits;
    Alcotest.test_case "domain pool runs every task once" `Quick
      test_pool_run_tasks;
    Alcotest.test_case "domain pool propagates exceptions" `Quick
      test_pool_exception;
    Alcotest.test_case "domain pool handoff soak" `Quick test_pool_handoff_soak;
    Alcotest.test_case "serve merged differential vs dinic" `Slow
      test_serve_merged_differential;
    Alcotest.test_case "serve single shard = plain engine" `Quick
      test_serve_single_shard_matches_engine;
    QCheck_alcotest.to_alcotest ~long:true test_determinism_qcheck;
    Alcotest.test_case "borrowing re-targets overflow" `Quick
      test_serve_borrowing;
    Alcotest.test_case "starvation when no donor" `Quick test_serve_starvation;
    Alcotest.test_case "donor probes are fresh every flush" `Quick
      test_serve_probe_fresh_each_flush;
    Alcotest.test_case "token mode rejected" `Quick test_serve_rejects_token;
    Alcotest.test_case "warm headroom = from-scratch probe every slot" `Quick
      test_headroom_matches_from_scratch;
    Alcotest.test_case "headroom probes leave no trace" `Quick
      test_headroom_leaves_no_trace;
    QCheck_alcotest.to_alcotest test_task_map_qcheck;
    Alcotest.test_case "out-of-order task ids" `Quick test_out_of_order_ids;
    Alcotest.test_case "checkpoint task_home runs and their errors" `Quick
      test_checkpoint_task_home_runs;
    Alcotest.test_case "a retired solver name is an Error" `Quick
      test_retired_solver_refused;
    Alcotest.test_case "feed rejects out-of-range events alone" `Quick
      test_feed_rejects_out_of_range;
    Alcotest.test_case "feed rejects duplicate task ids" `Quick
      test_feed_rejects_duplicate_id;
    Alcotest.test_case "engine exception surfaces at the next join" `Quick
      test_serve_engine_exception;
    Alcotest.test_case "mid-slot snapshot changes nothing" `Quick
      test_serve_mid_slot_snapshot;
    Alcotest.test_case "checkpoint bytes at every domain count" `Quick
      test_snapshot_bytes_every_domain_count;
    Alcotest.test_case "an overload checkpoint allocates what it returns" `Quick
      test_overload_snapshot_words;
  ]
