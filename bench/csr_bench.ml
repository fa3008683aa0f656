(* E34: the zero-allocation CSR flow core on warm scheduling churn.

   A warm Incremental serves a deterministic churn schedule on a
   compile_full network in the online engine's cycle shape: switch
   every endpoint no circuit holds to its target, solve (extraction
   into the per-processor slots included), once per period ask a
   borrowing what-if (Incremental.headroom, the probe the serving
   router sends a donor shard), and release each circuit at the
   period's end. The bench records wall time and minor-heap words, and
   checks, untimed, every round against a from-scratch solve of its
   pre-solve snapshot with the committed circuits' links taken out:
   the committed count (Dinic.max_flow), and under the Priority
   discipline the total served priority as well (Mincost at cost
   -priority). Each what-if's value and cut are checked against a
   from-scratch solve and min cut, and the rounds after it against
   their own references: the probe must leave no trace. A calibrated
   Gc.minor_words measurement proves the headline claim: one full warm
   period — switches, solves, what-if, releases — performs exactly zero
   minor-heap allocation, including on the 1024-port network.

   The slot around the solve is held to the same bar on omega:256 and
   omega:16, the planes of the serving benchmark's steady and sparse
   workloads. The same churn, once under each discipline (Priority
   solves one class at a time), a warm run of adds and pops on the
   engine's event heap, and the cycle gate read from the engine's kept
   pending and free counts must each allocate 0 minor words, or the
   bench fails; so must decoding the plane's JSONL trace (deadlines,
   cancels and priorities included) through Workload.fold_lines_lenient,
   beyond the words of the events it returns, and a Domain_pool
   start/finish round trip over a reused task array, on the calling
   domain, at pool sizes 1 and 2. Warm Engine.advance is then measured
   in minor words per trace event (the event hook's count: arrivals,
   cancels, faults and repairs) on both planes and reported, not gated:
   task records, the live-circuit table and the links handed to
   Network.establish still allocate. Beside it, the same trace fed,
   routed and advanced through Serve at one domain, in words per trace
   event.

   The structured report lands in BENCH_csr.json for the [rsin perf]
   regression gate. *)

module Csr = Rsin_flow.Csr
module Incremental = Rsin_engine.Incremental
module Engine = Rsin_engine.Engine
module Serve = Rsin_engine.Serve
module Workload = Rsin_sim.Workload
module Event_heap = Rsin_util.Event_heap
module Domain_pool = Rsin_util.Domain_pool
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
   rounds, and each processor's priority. The opening round of each
   period re-randomizes every endpoint (no circuit is held right after
   the releases that closed the previous period); later rounds only
   *enable* further endpoints. targets.(round).(i) is -1 (leave), 0
   (off) or 1 (on). *)
type schedule = {
  rounds : int;
  period_len : int;
  proc_t : int array array;
  res_t : int array array;
  prio : int array;
}

let make_schedule rng ~np ~nr ~periods ~period_len =
  let rounds = periods * period_len in
  let gen width r =
    Array.init width (fun _ ->
        if r mod period_len = 0 then if Prng.float rng 1.0 < 0.55 then 1 else 0
        else if Prng.float rng 1.0 < 0.2 then 1
        else -1)
  in
  let res_t = Array.init rounds (gen nr) in
  let proc_t = Array.init rounds (gen np) in
  { rounds; period_len; proc_t; res_t;
    prio = Array.init np (fun _ -> 1 + Prng.int rng 4) }

(* The round of each period after which the what-if runs: mid-period,
   so the rounds after it check that it left nothing behind. *)
let probe_round = 1

(* The churn runner over one warm Incremental. [run_rounds lo hi] plays
   rounds [lo..hi] on the shared state, so the allocation probe can time
   one period alone; every period ends with no circuit held, so a pass
   over the whole schedule repeats exactly. It logs each round's
   circuits and their total priority, and each what-if's value and cut.
   [before_solve r] and [before_probe k] run just before round [r]'s
   solve and period [k]'s what-if: the untimed checked run reads the
   from-scratch references there. The what-if counts every uncommitted
   processor that is not requesting as idle, read into an array first,
   since headroom rewrites the source arcs it asks about. *)
type churn = {
  inc : Incremental.t;
  run_rounds : int -> int -> unit;
  checked_run : solve:(int -> unit) -> what_if:(int -> unit) -> unit;
  added : int array;    (* round -> circuits committed *)
  served : int array;   (* round -> their total priority *)
  headroom : int array; (* period -> the what-if's value *)
  limited : bool array; (* period -> whether its min cut crosses a link *)
}

let runner ~discipline net sched =
  let inc = Incremental.create ~discipline net in
  let np = Network.n_procs net and nr = Network.n_res net in
  let res_held = Array.make nr false in
  let requesting = Array.make np false in
  let idle p = not requesting.(p) in
  let added = Array.make sched.rounds 0 and served = Array.make sched.rounds 0 in
  let periods = sched.rounds / sched.period_len in
  let headroom = Array.make periods 0 and limited = Array.make periods false in
  let before_solve = ref ignore and before_probe = ref ignore in
  let rec commit r n k =
    if k < n then begin
      let p = Incremental.found inc k in
      res_held.(Incremental.circuit_res inc p) <- true;
      served.(r) <- served.(r) + sched.prio.(p);
      commit r n (k + 1)
    end
  in
  let probe k =
    for p = 0 to np - 1 do
      requesting.(p) <- Incremental.requesting inc p
    done;
    !before_probe k;
    headroom.(k) <- Incremental.headroom inc ~idle;
    limited.(k) <- Incremental.last_fabric_limited inc
  in
  let release_all () =
    for p = 0 to np - 1 do
      if Incremental.holds inc p then begin
        res_held.(Incremental.circuit_res inc p) <- false;
        Incremental.release inc p
      end
    done
  in
  let run_rounds lo hi =
    for r = lo to hi do
      let pt = sched.proc_t.(r) and qt = sched.res_t.(r) in
      for p = 0 to np - 1 do
        if pt.(p) >= 0 && not (Incremental.holds inc p) then
          Incremental.set_requesting inc ~priority:sched.prio.(p) p (pt.(p) = 1)
      done;
      for q = 0 to nr - 1 do
        if qt.(q) >= 0 && not res_held.(q) then
          Incremental.set_resource_free inc q (qt.(q) = 1)
      done;
      !before_solve r;
      let n = Incremental.solve inc in
      added.(r) <- n;
      served.(r) <- 0;
      commit r n 0;
      if r mod sched.period_len = probe_round then probe (r / sched.period_len);
      if (r + 1) mod sched.period_len = 0 then release_all ()
    done
  in
  let checked_run ~solve ~what_if =
    before_solve := solve;
    before_probe := what_if;
    Fun.protect
      ~finally:(fun () ->
        before_solve := ignore;
        before_probe := ignore)
      (fun () -> run_rounds 0 (sched.rounds - 1))
  in
  { inc; run_rounds; checked_run; added; served; headroom; limited }

(* The snapshot graph of [inc]'s network with the committed circuits'
   links taken out, the processors no circuit holds that satisfy
   [request] as requests (at [cost p]) and the switched-on resources no
   circuit holds as free, with its source and sink. *)
let snapshot inc ~request ~cost =
  let ng = Incremental.netgraph inc in
  let c = Netgraph.graph ng in
  let net = Network.copy (Netgraph.network ng) in
  Array.iter
    (fun (a, l) -> if Csr.is_frozen c a then Network.set_link_up net l false)
    (Netgraph.link_arcs ng);
  let unheld arc n keep =
    List.filter
      (fun i -> keep i && not (Csr.is_frozen c (Option.get (arc i))))
      (List.init n Fun.id)
  in
  let snap =
    Netgraph.compile net
      ~requests:
        (List.map
           (fun p -> (p, cost p))
           (unheld (Netgraph.sp_arc ng) (Network.n_procs net) request))
      ~free:
        (List.map
           (fun r -> (r, 0))
           (unheld (Netgraph.rt_arc ng) (Network.n_res net)
              (Incremental.resource_free inc)))
  in
  (snap, Netgraph.graph snap, Netgraph.source snap, Netgraph.sink snap)

(* From-scratch reference for one round, read before its solve: the
   committed count, which is unique, and under Priority (requests at
   cost -priority) the total served priority, the negated cost. *)
let reference inc ~priority ~prio =
  let _, g, source, sink =
    snapshot inc ~request:(Incremental.requesting inc)
      ~cost:(fun p -> if priority then -prio.(p) else 0)
  in
  if priority then
    let r = Mincost.min_cost_max_flow g ~source ~sink in
    (r.Mincost.flow, -r.Mincost.cost)
  else (fst (Dinic.max_flow g ~source ~sink), 0)

(* From-scratch reference for one what-if, read before it runs:
   Transformation 1's value over requests = the idle processors, and
   whether its min cut crosses a fabric link. *)
let probe_reference inc =
  let snap, g, source, sink =
    snapshot inc
      ~request:(fun p -> not (Incremental.requesting inc p))
      ~cost:(fun _ -> 0)
  in
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

(* The net allocation of one full warm period: it must be zero to the
   word. Every period ends with no circuit held, so after a whole run
   the first period can run again. *)
let period_words c sched =
  c.run_rounds 0 (sched.rounds - 1);
  words (fun () -> c.run_rounds 0 (sched.period_len - 1))

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* --- The slot around the solve ------------------------------------------ *)

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

(* Minor words of 200 start/finish round trips over one reused task
   array in a Domain_pool of [size], on the calling domain, after ten
   warm-up trips. *)
let pool_words size =
  let pool = Domain_pool.create size in
  let runs = Atomic.make 0 in
  let tasks = Array.make 4 (fun () -> Atomic.incr runs) in
  let trips n =
    for _ = 1 to n do
      Domain_pool.start pool tasks;
      Domain_pool.finish pool
    done
  in
  trips 10;
  let w = words (fun () -> trips 200) in
  Domain_pool.shutdown pool;
  if Atomic.get runs <> 4 * 210 then failwith "E34: a pool task did not run";
  w

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
  let periods = if quick then 6 else 16 in
  let rounds = 4 * periods in
  let churn_words discipline =
    let sched =
      make_schedule
        (Prng.create (Hashtbl.hash (Network.name net, seed)))
        ~np:(Network.n_procs net) ~nr:(Network.n_res net) ~periods ~period_len:4
    in
    let c = runner ~discipline net sched in
    c.run_rounds 0 ((rounds / 2) - 1);
    let w = words (fun () -> c.run_rounds (rounds / 2) (rounds - 1)) in
    (w, Array.fold_left ( + ) 0 c.added)
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
    (float_of_int committed);
  Bench_report.record_yield case ~name:"slot.priority_committed"
    ~unit_:"circuits" (float_of_int prio_committed);
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
    "  (Incremental on compile_full, the engine's cycle: switch / solve and\n\
    \   extract / what-if / release, deterministic schedule, seed %d%s)\n\n"
    seed
    (if quick then ", quick" else "");
  let report = Bench_report.create ~quick "csr" in
  let runs = if quick then 2 else 4 in
  let periods = if quick then 3 else 6 in
  let configs =
    [ ("omega:64", (fun () -> Builders.omega 64), Incremental.Maxflow, periods);
      ( "omega:64/priority",
        (fun () -> Builders.omega 64),
        Incremental.Priority,
        periods );
      ( "clos:8,8,8",
        (fun () -> Builders.clos ~m:8 ~n:8 ~r:8),
        Incremental.Maxflow,
        periods );
      ( "omega:1024",
        (fun () -> Builders.omega 1024),
        Incremental.Maxflow,
        if quick then 2 else 3 ) ]
  in
  let rows =
    List.map
      (fun (name, build, discipline, periods) ->
        let period_len = 4 in
        let rng = Prng.create (Hashtbl.hash (name, seed)) in
        let net = build () in
        let np = Network.n_procs net and nr = Network.n_res net in
        let sched = make_schedule rng ~np ~nr ~periods ~period_len in
        let priority = discipline = Incremental.Priority in
        let c = runner ~discipline net sched in
        let m =
          Bench_report.measure ~warmup:1 ~runs (fun () ->
              c.run_rounds 0 (sched.rounds - 1))
        in
        (* Differential, untimed: every round must commit what a
           from-scratch solve of its pre-solve snapshot does, and every
           what-if must answer what a from-scratch Transformation 1 and
           min cut of the same state do. *)
        let want = Array.make sched.rounds (0, 0) in
        let want_probe = Array.make (Array.length c.headroom) (0, false) in
        c.checked_run
          ~solve:(fun r -> want.(r) <- reference c.inc ~priority ~prio:sched.prio)
          ~what_if:(fun k -> want_probe.(k) <- probe_reference c.inc);
        Array.iteri
          (fun r (units, served) ->
            if c.added.(r) <> units || (priority && c.served.(r) <> served) then begin
              Printf.eprintf
                "E34 %s: round %d: %d circuits serving %d, from scratch %d \
                 serving %d\n"
                name r c.added.(r) c.served.(r) units served;
              assert false
            end)
          want;
        Array.iteri
          (fun k (value, limited) ->
            if c.headroom.(k) <> value || c.limited.(k) <> limited then begin
              Printf.eprintf
                "E34 %s: period %d what-if: %d (fabric-limited %b), from \
                 scratch %d (%b)\n"
                name k c.headroom.(k) c.limited.(k) value limited;
              assert false
            end)
          want_probe;
        let period_alloc = period_words c sched in
        if period_alloc <> 0. then begin
          Printf.eprintf
            "E34 %s: warm period allocated %.0f minor words (want 0)\n" name
            period_alloc;
          assert false
        end;
        let case = Bench_report.case report name in
        Bench_report.record case ~prefix:"csr" m;
        let total a = float_of_int (Array.fold_left ( + ) 0 a) in
        Bench_report.record_yield case ~name:"csr.committed" ~unit_:"circuits"
          (total c.added);
        Bench_report.record_count case ~name:"csr.alloc_per_period"
          ~unit_:"words" period_alloc;
        Bench_report.record_count case ~name:"csr.probe_headroom"
          ~unit_:"circuits" (total c.headroom);
        Bench_report.record_count case ~name:"csr.probe_fabric_limited"
          ~unit_:"probes"
          (float_of_int
             (Array.fold_left (fun n b -> if b then n + 1 else n) 0 c.limited));
        Bench_report.record_count case ~name:"rounds"
          (float_of_int sched.rounds);
        let per_cycle x = x /. float_of_int sched.rounds in
        [
          name;
          string_of_int sched.rounds;
          Table.ffix 1 (per_cycle (mean m.Bench_report.wall_us));
          Table.ffix 0 (per_cycle (mean m.Bench_report.minor_words));
          Table.ffix 0 (total c.added);
          Table.ffix 0 (total c.headroom);
        ])
      configs
  in
  Table.print
    ~header:[ "net"; "rounds"; "us/cyc"; "w/cyc"; "committed"; "headroom" ]
    rows;
  print_newline ();
  print_endline
    "  (checked: every round commits what a from-scratch solve of its";
  print_endline
    "   pre-solve snapshot does, serving the same total priority under";
  print_endline
    "   priority, and each period's borrowing what-if answers what a";
  print_endline
    "   from-scratch solve and min cut do; one full warm period —";
  print_endline
    "   switches, solves, what-if, releases — allocates 0 minor words,";
  print_endline "   1024-port net included)";
  print_newline ();
  let pool = List.map (fun size -> (size, pool_words size)) [ 1; 2 ] in
  List.iter
    (fun (size, w) ->
      if w <> 0. then begin
        Printf.eprintf
          "E34: Domain_pool start/finish at size %d allocated %.0f minor words \
           on the calling domain (want 0)\n"
          size w;
        assert false
      end)
    pool;
  let case = Bench_report.case report "domain_pool" in
  List.iter
    (fun (size, w) ->
      Bench_report.record_count case
        ~name:(Printf.sprintf "pool.round_trip_words_%d" size)
        ~unit_:"words" w)
    pool;
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
    "  (checked: the same warm churn under either discipline, solves and";
  print_endline
    "   their extraction included, event-heap adds and pops, the cycle gate";
  print_endline
    "   and a Domain_pool start/finish round trip at 1 and 2 domains";
  print_endline
    "   allocate 0 minor words, and decoding the JSONL lines allocates 0";
  print_endline
    "   words beyond the events; warm advance and Serve's feed-route-advance";
  print_endline
    "   at one domain, words per trace event, are reported, not gated)";
  Printf.printf "  wrote %s\n\n" (Bench_report.write report)
