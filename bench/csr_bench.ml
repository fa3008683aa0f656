(* E34: the zero-allocation CSR flow core on warm scheduling churn.

   The core serves a deterministic churn schedule over a compile_full
   network — endpoint enables, one warm augmentation, a commit freezing
   the new circuits, and a periodic release-all — the exact cycle shape
   of the online engine. The bench records wall time and minor-heap
   words, checks every round's committed units against a from-scratch
   solve (Dinic.max_flow, or Mincost.min_cost_max_flow with the cost as
   well) of a snapshot graph with the same endpoint state and the
   committed circuits' links taken out, and proves the headline claim
   with a calibrated Gc.minor_words measurement: one full CSR warm
   period — enables, solves, commits, release — performs exactly zero
   minor-heap allocation, including on the 1024-port network. Each
   period also runs the borrowing what-if the serving router asks a
   donor shard (Incremental.headroom): switch the uncommitted source
   arcs over, augment, test the cut for fabric links, roll back and
   switch back. Its value and cut are checked against a from-scratch
   solve and min cut, the rounds after it against their own references
   (the probe must leave no trace), and it sits inside the measured
   zero-allocation period.

   The slot around the solve is held to the same bar on omega:256 and
   omega:16, the planes of the serving benchmark's steady and sparse
   workloads. A warm Incremental churn (endpoint switches, solves with
   their one-pass extraction into the per-processor slots, releases),
   once under each discipline (Priority solves one class at a time), a
   warm run of adds and pops on the engine's event heap, and the cycle
   gate read from the engine's kept pending and free counts must each
   allocate 0 minor words, or the bench fails; so must decoding the
   plane's JSONL trace (deadlines, cancels and priorities included)
   through Workload.fold_lines_lenient, beyond the words of the events
   it returns. Warm Engine.advance is then measured in minor words per
   trace event (the event hook's count: arrivals, cancels, faults and
   repairs) on both planes and reported, not gated: task records, the
   live-circuit table and the links handed to Network.establish still
   allocate. Beside it, the same trace fed, routed and advanced through
   Serve at one domain, in words per trace event.

   The structured report lands in BENCH_csr.json for the [rsin perf]
   regression gate. *)

module Csr = Rsin_flow.Csr
module Incremental = Rsin_engine.Incremental
module Engine = Rsin_engine.Engine
module Serve = Rsin_engine.Serve
module Workload = Rsin_sim.Workload
module Event_heap = Rsin_util.Event_heap
module Dinic = Rsin_flow.Dinic
module Edmonds_karp = Rsin_flow.Edmonds_karp
module Mincost = Rsin_flow.Mincost
module Netgraph = Rsin_core.Netgraph
module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Prng = Rsin_util.Prng
module Table = Rsin_util.Table
module Bench_report = Rsin_obs.Bench_report

let seed = 34

(* A deterministic endpoint-churn schedule of [periods] x [period_len]
   rounds. The opening round of each period re-randomizes every endpoint
   (the graph is clean right after the release-all that closed the
   previous period); later rounds only *enable* further endpoints — a
   disable could land on an arc frozen under a live circuit.
   targets.(round).(i) is -1 (leave), 0 (off) or 1 (on). *)
type schedule = {
  rounds : int;
  period_len : int;
  proc_t : int array array;
  res_t : int array array;
}

let make_schedule rng ~np ~nr ~periods ~period_len =
  let rounds = periods * period_len in
  let gen width r =
    Array.init width (fun _ ->
        if r mod period_len = 0 then if Prng.float rng 1.0 < 0.55 then 1 else 0
        else if Prng.float rng 1.0 < 0.2 then 1
        else -1)
  in
  {
    rounds;
    period_len;
    proc_t = Array.init rounds (gen np);
    res_t = Array.init rounds (gen nr);
  }

(* The runner exposes [run_rounds lo hi] over a shared mutable state so
   the allocation probe can time a single period in isolation, plus a
   whole-schedule [run] that resets first (making measured runs
   repeatable), a per-round [added] log, per-period [headroom] and
   [limited] logs of the what-if's value and cut, and [checked_run f g],
   an untimed whole-schedule run that calls [f] on every round's solve
   result and [g] on every what-if. *)

(* The round of each period after which the what-if runs: mid-period,
   so the rounds after it check that it left nothing behind. *)
let probe_round = 1

let csr_runner ng sched ~mincost ~prio =
  let c = Netgraph.graph ng in
  let source = Netgraph.source ng and sink = Netgraph.sink ng in
  let net = Netgraph.network ng in
  let np = Network.n_procs net and nr = Network.n_res net in
  let sp = Array.init np (fun p -> Option.get (Netgraph.sp_arc ng p)) in
  let rt = Array.init nr (fun r -> Option.get (Netgraph.rt_arc ng r)) in
  let links = Array.map fst (Netgraph.link_arcs ng) in
  let added = Array.make sched.rounds 0 in
  let periods = sched.rounds / sched.period_len in
  let headroom = Array.make periods 0 and limited = Array.make periods false in
  let check = ref None and probe_check = ref None in
  (* The what-if, as Incremental.headroom runs it on an engine: every
     uncommitted processor that is not requesting counts as idle. *)
  let was_on = Array.make np false in
  let rec crosses_cut j =
    j < Array.length links
    &&
    let a = links.(j) in
    (Csr.original_capacity c a > 0
    && (not (Csr.is_frozen c a))
    && Csr.source_side c (Csr.src c a)
    && not (Csr.source_side c (Csr.dst c a)))
    || crosses_cut (j + 1)
  in
  let what_if period =
    for p = 0 to np - 1 do
      if not (Csr.is_frozen c sp.(p)) then begin
        was_on.(p) <- Csr.original_capacity c sp.(p) > 0;
        Csr.set_capacity c sp.(p) (if was_on.(p) then 0 else 1)
      end
    done;
    headroom.(period) <- Csr.dinic c ~source ~sink;
    limited.(period) <- crosses_cut 0;
    Csr.rollback c;
    (match !probe_check with Some g -> g period | None -> ());
    for p = 0 to np - 1 do
      if not (Csr.is_frozen c sp.(p)) then
        Csr.set_capacity c sp.(p) (if was_on.(p) then 1 else 0)
    done
  in
  let reset () =
    Csr.release_all c;
    Array.iter (fun a -> Csr.set_capacity c a 0) sp;
    Array.iter (fun a -> Csr.set_capacity c a 0) rt;
    if mincost then Array.iteri (fun p a -> Csr.set_cost c a (-prio.(p))) sp
  in
  let run_rounds lo hi =
    for r = lo to hi do
      let pt = sched.proc_t.(r) and qt = sched.res_t.(r) in
      for p = 0 to np - 1 do
        if pt.(p) >= 0 && Csr.original_capacity c sp.(p) <> pt.(p) then
          Csr.set_capacity c sp.(p) pt.(p)
      done;
      for q = 0 to nr - 1 do
        if qt.(q) >= 0 && Csr.original_capacity c rt.(q) <> qt.(q) then
          Csr.set_capacity c rt.(q) qt.(q)
      done;
      let before = match !check with Some _ -> Csr.total_cost c | None -> 0 in
      added.(r) <-
        (if mincost then Csr.mincost c ~source ~sink
         else Csr.dinic c ~source ~sink);
      (match !check with
      | Some f -> f r ~units:added.(r) ~cost:(Csr.total_cost c - before)
      | None -> ());
      ignore (Csr.commit_new c ~source);
      if r mod sched.period_len = probe_round then
        what_if (r / sched.period_len);
      if (r + 1) mod sched.period_len = 0 then Csr.release_all c
    done
  in
  let run () =
    reset ();
    run_rounds 0 (sched.rounds - 1)
  in
  let checked_run f g =
    check := Some f;
    probe_check := Some g;
    Fun.protect
      ~finally:(fun () ->
        check := None;
        probe_check := None)
      run
  in
  (run, checked_run, run_rounds, added, (headroom, limited))

(* The snapshot graph of the network with the committed circuits' links
   taken down and the switched-on, uncommitted endpoints as requests (at
   [cost p]) and free resources, with its source and sink. *)
let snapshot ng ~cost =
  let c = Netgraph.graph ng in
  let net = Network.copy (Netgraph.network ng) in
  Array.iter
    (fun (a, l) -> if Csr.is_frozen c a then Network.set_link_up net l false)
    (Netgraph.link_arcs ng);
  let live arc n cost =
    List.filter_map
      (fun i ->
        match arc i with
        | Some a when Csr.original_capacity c a = 1 && not (Csr.is_frozen c a) ->
          Some (i, cost i)
        | Some _ | None -> None)
      (List.init n Fun.id)
  in
  let snap =
    Netgraph.compile net
      ~requests:(live (Netgraph.sp_arc ng) (Network.n_procs net) cost)
      ~free:(live (Netgraph.rt_arc ng) (Network.n_res net) (fun _ -> 0))
  in
  (snap, Netgraph.graph snap, Netgraph.source snap, Netgraph.sink snap)

(* From-scratch reference for one round. Committed units are unique,
   and under mincost (requests at cost -priority) so is the cost of the
   new flow. *)
let reference ng ~mincost ~prio =
  let _, g, source, sink =
    snapshot ng ~cost:(fun p -> if mincost then -prio.(p) else 0)
  in
  if mincost then
    let r = Mincost.min_cost_max_flow g ~source ~sink in
    (r.Mincost.flow, r.Mincost.cost)
  else (fst (Dinic.max_flow g ~source ~sink), 0)

(* From-scratch reference for one what-if, read while its source arcs
   are switched over: Transformation 1's value over the same snapshot,
   and whether its min cut crosses a fabric link. *)
let probe_reference ng =
  let snap, g, source, sink = snapshot ng ~cost:(fun _ -> 0) in
  let value = fst (Dinic.max_flow g ~source ~sink) in
  let cut = Netgraph.cut_members snap (Edmonds_karp.min_cut g ~source ~sink) in
  (value, List.exists (function `Link _ -> true | `Proc _ | `Res _ -> false) cut)

(* Calibrated allocation probe: [Gc.minor_words] itself boxes its float
   result, so two back-to-back readings measure that overhead exactly
   (a reading's box is charged to the *next* delta). [words f] is the
   net minor words of [f ()]. *)
let words f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  f ();
  let c = Gc.minor_words () in
  c -. b -. (b -. a)

(* The net allocation of one full CSR warm period: it must be zero to
   the word. *)
let measure_period_alloc run run_rounds period_len =
  run ();
  (* state is clean: the schedule length is a multiple of the period *)
  words (fun () -> run_rounds 0 (period_len - 1))

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* --- The slot around the solve ------------------------------------------ *)

(* A warm Incremental churn in the engine's cycle shape, every target
   precomputed so the loop itself allocates nothing: each round releases
   the circuits committed two rounds before (transmission time 2),
   switches every endpoint no circuit holds, and solves. Under the
   Priority discipline each request carries one of four priorities, so
   a solve runs one Dinic per class present. Returns the rounds runner
   and the count of circuits committed. *)
let incremental_runner ~discipline net ~rounds =
  let inc = Incremental.create ~discipline net in
  let np = Network.n_procs net and nr = Network.n_res net in
  let rng = Prng.create (Hashtbl.hash (Network.name net, seed)) in
  let draw n p =
    Array.init rounds (fun _ -> Array.init n (fun _ -> Prng.float rng 1.0 < p))
  in
  let proc_on = draw np 0.5 and res_on = draw nr 0.6 in
  let prio =
    Array.init rounds (fun _ ->
        Array.init np (fun _ ->
            match discipline with
            | Incremental.Maxflow -> 0
            | Incremental.Priority -> Prng.int rng 4))
  in
  let held = Array.init 2 (fun _ -> Array.make np 0) and n_held = Array.make 2 0 in
  let res_busy = Array.make nr false in
  let committed = ref 0 in
  let run_rounds lo hi =
    for r = lo to hi do
      let b = r land 1 in
      for k = 0 to n_held.(b) - 1 do
        let p = held.(b).(k) in
        res_busy.(Incremental.circuit_res inc p) <- false;
        Incremental.release inc p
      done;
      for p = 0 to np - 1 do
        if not (Incremental.holds inc p) then
          Incremental.set_requesting inc ~priority:prio.(r).(p) p proc_on.(r).(p)
      done;
      for q = 0 to nr - 1 do
        if not res_busy.(q) then Incremental.set_resource_free inc q res_on.(r).(q)
      done;
      let n = Incremental.solve inc in
      for k = 0 to n - 1 do
        let p = Incremental.found inc k in
        held.(b).(k) <- p;
        res_busy.(Incremental.circuit_res inc p) <- true
      done;
      n_held.(b) <- n;
      committed := !committed + n
    done
  in
  (run_rounds, committed)

(* An engine on [net] past its first [warm] slots of a synthesized
   trace, the rest still queued, and a counter of the events it has
   served. *)
let warm_engine ?config net ~slots ~arrival ~warm =
  let served = ref 0 in
  let e =
    Engine.create ?config ~event_hook:(fun ~events ~time:_ -> served := events) net
  in
  List.iter (Engine.feed e)
    (Workload.synthesize (Prng.create seed) net ~slots ~arrival_prob:arrival);
  Engine.advance e ~upto:warm;
  (e, served)

(* Decoding a JSONL trace through Workload.fold_lines_lenient: the
   minor words beyond the decoded events' own blocks (the fold's one-off
   scratch, measured on an empty stream, taken off), and the lines
   decoded. *)
let decode_extra_words trace =
  let lines =
    Workload.trace_to_jsonl trace |> String.split_on_char '\n'
    |> List.filter (( <> ) "") |> List.map Option.some |> Array.of_list
  in
  let out = Array.make (Array.length lines) (Workload.Cancel { t = 0; id = 0 }) in
  let fold k =
    let i = ref 0 in
    let next () =
      if !i < k then begin
        let l = lines.(!i) in
        incr i;
        l
      end
      else None
    in
    let f j ev =
      out.(j) <- ev;
      j + 1
    in
    fun () ->
      ignore
        (Workload.fold_lines_lenient next
           ~on_error:(fun _ -> failwith "E34: a generated line was refused")
           ~init:0 ~f)
  in
  let n = Array.length lines in
  fold n ();
  let fixed = words (fold 0) and total = words (fold n) in
  let events =
    Array.fold_left (fun acc ev -> acc + Obj.reachable_words (Obj.repr ev)) 0 out
  in
  (total -. fixed -. float_of_int events, n)

(* Minor words per trace event through Serve at one domain: feed, route
   and advance of a decoded trace past its first [warm] slots, slot by
   slot, the drain included. *)
let serve_words_per_event net trace ~warm =
  match Serve.create ~domains:1 net with
  | Error e -> failwith ("E34: Serve.create: " ^ e)
  | Ok s ->
    let early, late =
      List.partition (fun ev -> Workload.event_time ev <= warm) trace
    in
    let feed = Serve.feed s in
    List.iter feed early;
    let w =
      words (fun () ->
          List.iter feed late;
          Serve.drain s)
    in
    w /. float_of_int (List.length late)

(* The per-plane slot checks: hard-fail on any minor word from the
   warm Incremental churn under either discipline, the event heap, the
   cycle gate, or decoding a line beyond its event; then warm
   Engine.advance and Serve's feed-route-advance words per trace
   event, reported. *)
let slot_row report ~quick (name, net, arrival, slots) =
  let fail what w =
    Printf.eprintf "E34 %s: %s allocated %.0f minor words (want 0)\n" name what w;
    assert false
  in
  let rounds = if quick then 24 else 64 in
  let churn_words discipline =
    let run_rounds, committed = incremental_runner ~discipline net ~rounds in
    run_rounds 0 ((rounds / 2) - 1);
    (words (fun () -> run_rounds (rounds / 2) (rounds - 1)), committed)
  in
  let solve_words, committed = churn_words Incremental.Maxflow in
  if solve_words <> 0. then fail "warm Incremental.solve churn" solve_words;
  let prio_words, prio_committed = churn_words Incremental.Priority in
  if prio_words <> 0. then
    fail "warm priority-discipline Incremental.solve churn" prio_words;
  let h = Event_heap.create () and n = 4 * Network.n_procs net in
  let heap_period () =
    for i = 0 to n - 1 do
      Event_heap.add h ~time:(i * 7919 mod 97) ~seq:i i
    done;
    for _ = 1 to n do
      ignore (Event_heap.pop h)
    done
  in
  heap_period ();
  let heap_words = words heap_period in
  if heap_words <> 0. then fail "event heap add/pop" heap_words;
  let gate_words =
    List.fold_left
      (fun acc config ->
        let e, _ = warm_engine ~config net ~slots:60 ~arrival ~warm:30 in
        acc
        +. words (fun () ->
               for now = 31 to 1030 do
                 ignore (Engine.cycle_due e ~now)
               done))
      0.
      [ Engine.Config.default; Engine.Config.v ~batch_threshold:4 () ]
  in
  if gate_words <> 0. then fail "cycle gate" gate_words;
  let slots = if quick then slots / 4 else slots in
  let e, served = warm_engine net ~slots ~arrival ~warm:(slots / 4) in
  let before = !served in
  let advance_words = words (fun () -> Engine.drain e) in
  let per_event = advance_words /. float_of_int (!served - before) in
  let trace = Workload.synthesize (Prng.create seed) net ~slots ~arrival_prob:arrival in
  let decode_words, decoded =
    decode_extra_words
      (Workload.synthesize ~deadline_slack:20 ~cancel_prob:0.1 ~priority_levels:3
         (Prng.create seed) net ~slots ~arrival_prob:arrival)
  in
  if decode_words <> 0. then fail "decoding beyond the events" decode_words;
  let serve_per_event = serve_words_per_event net trace ~warm:(slots / 4) in
  let case = Bench_report.case report ("slot:" ^ name) in
  Bench_report.record_count case ~name:"slot.solve_words" ~unit_:"words"
    solve_words;
  Bench_report.record_count case ~name:"slot.priority_solve_words"
    ~unit_:"words" prio_words;
  Bench_report.record_count case ~name:"slot.heap_words" ~unit_:"words"
    heap_words;
  Bench_report.record_count case ~name:"slot.gate_words" ~unit_:"words"
    gate_words;
  Bench_report.record_yield case ~name:"slot.committed" ~unit_:"circuits"
    (float_of_int !committed);
  Bench_report.record_yield case ~name:"slot.priority_committed"
    ~unit_:"circuits" (float_of_int !prio_committed);
  (* An allocation figure, held to the gate's time-and-alloc tolerance:
     it is not a deterministic count across compiler versions. *)
  Bench_report.record_samples case ~name:"slot.advance_words_per_event"
    ~kind:Bench_report.Alloc ~unit_:"words" [| per_event |];
  Bench_report.record_count case ~name:"slot.decode_words" ~unit_:"words"
    decode_words;
  Bench_report.record_samples case ~name:"slot.serve_words_per_event"
    ~kind:Bench_report.Alloc ~unit_:"words" [| serve_per_event |];
  [ name; string_of_int rounds; Table.ffix 0 solve_words;
    Table.ffix 0 prio_words; Table.ffix 0 heap_words; Table.ffix 0 gate_words;
    Table.ffix 0 decode_words; string_of_int (!served - before);
    Table.ffix 1 per_event; Table.ffix 1 serve_per_event;
    string_of_int decoded ]

let run ?(quick = false) () =
  print_endline "== E34: zero-allocation CSR core on warm churn ==";
  Printf.printf
    "  (compile_full warm churn: enable / augment / commit / release-all,\n\
    \   deterministic schedule, seed %d%s)\n\n"
    seed
    (if quick then ", quick" else "");
  let report = Bench_report.create ~quick "csr" in
  let runs = if quick then 2 else 4 in
  let configs =
    [
      ("omega:64", (fun () -> Builders.omega 64), false, (if quick then 3 else 6));
      ( "omega:64/mincost",
        (fun () -> Builders.omega 64),
        true,
        if quick then 3 else 6 );
      ( "clos:8,8,8",
        (fun () -> Builders.clos ~m:8 ~n:8 ~r:8),
        false,
        if quick then 3 else 6 );
      ("omega:1024", (fun () -> Builders.omega 1024), false, (if quick then 2 else 3));
    ]
  in
  let rows =
    List.map
      (fun (name, build, mincost, periods) ->
        let period_len = 4 in
        let rng = Prng.create (Hashtbl.hash (name, seed)) in
        let ng = Netgraph.compile_full (build ()) in
        let net = Netgraph.network ng in
        let np = Network.n_procs net and nr = Network.n_res net in
        let sched = make_schedule rng ~np ~nr ~periods ~period_len in
        let prio = Array.init np (fun _ -> 1 + Prng.int rng 4) in
        let csr_run, csr_checked_run, csr_rounds, csr_added, (headroom, limited)
            =
          csr_runner ng sched ~mincost ~prio
        in
        let m_csr = Bench_report.measure ~warmup:1 ~runs csr_run in
        (* Differential, untimed: every round's warm augment must commit
           what a from-scratch solve of the same snapshot does. *)
        let check r ~units ~cost =
          let want_units, want_cost = reference ng ~mincost ~prio in
          if units <> want_units || cost <> want_cost then begin
            Printf.eprintf
              "E34 %s: round %d: csr %d units at cost %d, from scratch \
               %d at %d\n"
              name r units cost want_units want_cost;
            assert false
          end
        in
        (* ...and every what-if must answer what a from-scratch
           Transformation 1 and min cut of its switched-over snapshot do. *)
        let probe_check period =
          let want_value, want_limited = probe_reference ng in
          if headroom.(period) <> want_value || limited.(period) <> want_limited
          then begin
            Printf.eprintf
              "E34 %s: period %d what-if: csr %d (fabric-limited %b), from \
               scratch %d (%b)\n"
              name period headroom.(period) limited.(period) want_value
              want_limited;
            assert false
          end
        in
        csr_checked_run check probe_check;
        let period_alloc =
          measure_period_alloc csr_run csr_rounds period_len
        in
        if period_alloc <> 0. then begin
          Printf.eprintf
            "E34 %s: CSR warm period allocated %.0f minor words (want 0)\n" name
            period_alloc;
          assert false
        end;
        let case = Bench_report.case report name in
        Bench_report.record case ~prefix:"csr" m_csr;
        let total a = float_of_int (Array.fold_left ( + ) 0 a) in
        Bench_report.record_yield case ~name:"csr.committed" ~unit_:"circuits"
          (total csr_added);
        Bench_report.record_count case ~name:"csr.alloc_per_period"
          ~unit_:"words" period_alloc;
        Bench_report.record_count case ~name:"csr.probe_headroom"
          ~unit_:"circuits" (total headroom);
        Bench_report.record_count case ~name:"csr.probe_fabric_limited"
          ~unit_:"probes"
          (float_of_int
             (Array.fold_left (fun n b -> if b then n + 1 else n) 0 limited));
        Bench_report.record_count case ~name:"rounds"
          (float_of_int sched.rounds);
        let per_cycle x = x /. float_of_int sched.rounds in
        [
          name;
          string_of_int sched.rounds;
          Table.ffix 1 (per_cycle (mean m_csr.Bench_report.wall_us));
          Table.ffix 0 (per_cycle (mean m_csr.Bench_report.minor_words));
          Table.ffix 0 (total csr_added);
          Table.ffix 0 (total headroom);
        ])
      configs
  in
  Table.print
    ~header:[ "net"; "rounds"; "us/cyc"; "w/cyc"; "committed"; "headroom" ]
    rows;
  print_newline ();
  print_endline
    "  (checked: every round commits what a from-scratch solve of the same";
  print_endline
    "   snapshot does, and each period's borrowing what-if answers what a";
  print_endline
    "   from-scratch solve and min cut do; one full CSR warm period —";
  print_endline
    "   enables, solves, commits, what-if, release — allocates 0 minor";
  print_endline "   words, 1024-port net included)";
  print_newline ();
  print_endline "  the slot around the solve, per plane of the serving benchmark:";
  Table.print
    ~header:
      [ "plane"; "rounds"; "solve w"; "prio w"; "heap w"; "gate w"; "decode w";
        "events"; "advance w/ev"; "serve w/ev"; "lines" ]
    (List.map
       (slot_row report ~quick)
       [ ("omega:256", Builders.omega 256, 0.12, 1100);
         ("omega:16", Builders.omega 16, 0.04, 5000) ]);
  print_newline ();
  print_endline
    "  (checked: a warm Incremental churn under either discipline, solves";
  print_endline
    "   and their extraction included, event-heap adds and pops, and the";
  print_endline
    "   cycle gate allocate 0 minor words, and decoding the JSONL lines";
  print_endline
    "   allocates 0 words beyond the events; warm advance and Serve's";
  print_endline
    "   feed-route-advance at one domain, words per trace event, are";
  print_endline "   reported, not gated)";
  Printf.printf "  wrote %s\n\n" (Bench_report.write report)
