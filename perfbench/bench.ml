(* The serving benchmark: JSONL bytes into the [rsin serve] pipeline,
   allocation decisions out, measured in-process.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The workload's trace is synthesized from the seed and serialized once
   to JSONL bytes in memory. Each pass ("rep") builds the network, calls
   [Serve.create] on a pool of two domains, streams the bytes line by
   line through [Workload.fold_lines_lenient] into [Serve.feed] — one
   closed-loop client: the next line goes in as soon as the previous call
   returns — and ends with [Serve.drain]. Passes repeat until [S] seconds
   are used.

   --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
   and traced passes and prints the per-layer metrics, derived from spans
   recorded around every call this file makes into a layer and from the
   public reports and hooks. The spans of the last traced pass are
   written as a Chrome trace.

   Every pass is checked: accounting after the drain, no dropped line,
   events served = lines fed, and one deterministic counter tuple for
   every pass of the run (timed and traced alike). On a checkpointing
   workload the last checkpoint must restore and, fed the rest of the
   trace, reproduce the tuple. The last stdout line is the JSON result;
   a failed check makes it [correct: false] and the exit code 1. *)

module Workload = Rsin_sim.Workload
module Engine = Rsin_engine.Engine
module Serve = Rsin_engine.Serve
module Shard = Rsin_engine.Shard
module Clock = Rsin_util.Clock
module Json = Rsin_util.Json
module Domain_pool = Rsin_util.Domain_pool

external maxrss_kb : unit -> int = "perfbench_maxrss_kb"

let now () = Int64.to_int (Clock.now_ns ())
let domains = 2

(* --- checks ---------------------------------------------------------------- *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

(* Operations that failed: lines the lenient parser dropped and events
   [Serve.feed] rejected. The workloads are built so that there are none. *)
let failed_ops = ref 0

let drop fmt =
  incr failed_ops;
  fail fmt

let counter_names =
  [| "arrivals"; "allocated"; "completed"; "cancelled"; "expired"; "shed";
     "given_up"; "borrows"; "starved"; "cycles"; "skipped"; "solver_work";
     "faults"; "victims"; "quarantines" |]

let counters (r : Serve.report) =
  [| r.arrivals; r.allocated; r.completed; r.cancelled; r.expired; r.shed;
     r.given_up; r.borrows; r.starved; r.cycles; r.skipped_cycles;
     r.solver_work; r.faults; r.victims; r.quarantines |]

let reference = ref None

let check_counters ~what c =
  match !reference with
  | None -> reference := Some c
  | Some r ->
    Array.iteri
      (fun i name ->
        if c.(i) <> r.(i) then
          fail "%s: %s = %d, first pass had %d" what name c.(i) r.(i))
      counter_names

let digest c =
  String.sub
    (Digest.to_hex
       (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int c)))))
    0 16

(* --- input ------------------------------------------------------------------ *)

(* Lines of an in-memory JSONL document, one at a time, as a socket or
   stdin reader hands them to the lenient fold. *)
let line_source text =
  let pos = ref 0 in
  let len = String.length text in
  fun () ->
    if !pos >= len then None
    else begin
      let start = !pos in
      let stop =
        match String.index_from_opt text start '\n' with Some i -> i | None -> len
      in
      pos := stop + 1;
      Some (String.sub text start (stop - start))
    end

type input = {
  w : Workloads.t;
  seed : int;
  text : string;
  lines : int;
  distinct_slots : int;
}

let make_input w ~seed =
  let trace = Workloads.trace w ~seed (Workloads.network w) in
  let slots = List.sort_uniq compare (List.map Workload.event_time trace) in
  { w; seed; text = Workload.trace_to_jsonl trace; lines = List.length trace;
    distinct_slots = List.length slots }

(* --- one pass ---------------------------------------------------------------- *)

type pass = {
  setup_ns : int;
  serve_ns : int;
  report : Serve.report;
  slot_ns : Stats.ivec;        (* per-slot host time *)
  minor_words : float;
  minor_collections : int;
  major_collections : int;
  snapshot_ns : Stats.ivec;    (* checkpoint: snapshot + serialize *)
  snapshot_bytes : Stats.ivec;
  last_checkpoint : string option;
  shard_cycles : int array;    (* from cycle_hook, traced passes only *)
  shard_work : int array;
}

let pass ?spans inp =
  let w = inp.w in
  let sp f = match spans with Some s -> f s | None -> -1 in
  let close id t = match spans with Some s -> Spans.close s id ~now:t | None -> () in
  let rep = sp (fun s -> Spans.enter s Spans.Rep ~parent:(-1) ~now:(now ())) in
  Gc.full_major ();
  (* set-up: network construction + Serve.create *)
  let inst = ref None in
  let current = ref (-1) in
  let snapshot_ns = Stats.ivec () and snapshot_bytes = Stats.ivec () in
  let last_checkpoint = ref None in
  let event_hook =
    Option.map
      (fun every ->
        let written = ref 0 in
        fun ~events:_ ~time ->
          if time >= 0 && time / every > !written then begin
            written := time / every;
            let t0 = now () in
            let id = sp (fun s -> Spans.enter s Spans.Checkpoint ~parent:!current ~now:t0) in
            let doc = Json.to_string (Serve.snapshot (Option.get !inst)) in
            let t1 = now () in
            close id t1;
            Stats.push snapshot_ns (t1 - t0);
            Stats.push snapshot_bytes (String.length doc);
            last_checkpoint := Some doc
          end)
      w.Workloads.checkpoint_every
  in
  let shard_cycles = Array.make w.Workloads.planes 0 in
  let shard_work = Array.make w.Workloads.planes 0 in
  let cycle_hook =
    Option.map
      (fun _ ~shard _net (info : Engine.cycle_info) ->
        shard_cycles.(shard) <- shard_cycles.(shard) + 1;
        shard_work.(shard) <- shard_work.(shard) + info.Engine.work)
      spans
  in
  let config = w.Workloads.config ~seed:inp.seed in
  let t0 = now () in
  let net = Workloads.network w in
  let t1 = now () in
  ignore (sp (fun s -> Spans.add s Spans.Network ~parent:rep ~start:t0 ~stop:t1));
  (match spans with
   | Some s ->
     (* the partition step on its own, on a network copy of its own *)
     let net' = Workloads.network w in
     let a = now () in
     (match Shard.partition net' with
      | Ok _ -> ()
      | Error e -> fail "Shard.partition: %s" e);
     ignore (Spans.add s Spans.Partition ~parent:rep ~start:a ~stop:(now ()))
   | None -> ());
  let c0 = now () in
  let s =
    match Serve.create ~config ~domains ?cycle_hook ?event_hook net with
    | Ok s -> s
    | Error e -> failwith ("Serve.create: " ^ e)
  in
  let c1 = now () in
  ignore (sp (fun sp -> Spans.add sp Spans.Create ~parent:rep ~start:c0 ~stop:c1));
  let setup_ns = (t1 - t0) + (c1 - c0) in
  inst := Some s;
  (* serve: first byte to the return of Serve.drain *)
  let clock = Stats.slot_clock () in
  let gc0 = Gc.quick_stat () in
  let start = now () in
  let serve_span = sp (fun sp -> Spans.enter sp Spans.Serve ~parent:rep ~now:start) in
  let parse_start = ref start in
  let next_line = line_source inp.text in
  let next_line =
    match spans with
    | None -> next_line
    | Some _ ->
      fun () ->
        parse_start := now ();
        next_line ()
  in
  let feed () ev =
    let t = now () in
    let flushing = Stats.tick clock ~slot:(Workload.event_time ev) ~now:t in
    match spans with
    | None -> (
      try Serve.feed s ev with Invalid_argument m -> drop "feed: %s" m)
    | Some sp ->
      ignore (Spans.add sp Spans.Parse ~parent:serve_span ~start:!parse_start ~stop:t);
      let id =
        Spans.enter sp (if flushing then Spans.Flush else Spans.Feed)
          ~parent:serve_span ~now:t
      in
      current := id;
      (try Serve.feed s ev with Invalid_argument m -> drop "feed: %s" m);
      Spans.close sp id ~now:(now ())
  in
  Workload.fold_lines_lenient next_line
    ~on_error:(fun { Workload.line; message } -> drop "line %d dropped: %s" line message)
    ~init:() ~f:feed;
  let d0 = now () in
  (match spans with
   | Some sp ->
     ignore (Spans.add sp Spans.Parse ~parent:serve_span ~start:!parse_start ~stop:d0)
   | None -> ());
  let drain_span = sp (fun sp -> Spans.enter sp Spans.Drain ~parent:serve_span ~now:d0) in
  current := drain_span;
  Serve.drain s;
  let stop = now () in
  close drain_span stop;
  close serve_span stop;
  let gc1 = Gc.quick_stat () in
  let k0 = now () in
  let report = Serve.report s in
  (match Serve.check_accounting s with
   | Ok () -> ()
   | Error e -> fail "accounting: %s" e);
  ignore (sp (fun sp -> Spans.add sp Spans.Check ~parent:rep ~start:k0 ~stop:(now ())));
  close rep (now ());
  if report.Serve.events <> inp.lines then
    fail "served %d events of %d lines fed" report.Serve.events inp.lines;
  check_counters ~what:(if spans = None then "timed pass" else "traced pass")
    (counters report);
  Printf.eprintf "%s pass: setup %.2f ms, serve %.3f s, %.0f events/s\n%!"
    (if spans = None then "timed" else "traced")
    (float_of_int setup_ns /. 1e6) (float_of_int (stop - start) /. 1e9)
    (float_of_int report.Serve.events /. (float_of_int (stop - start) /. 1e9));
  { setup_ns; serve_ns = stop - start; report; slot_ns = clock.Stats.durations;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    snapshot_ns; snapshot_bytes; last_checkpoint = !last_checkpoint;
    shard_cycles; shard_work }

(* Restores the last checkpoint on a fresh network, feeds it the slots
   after the checkpoint and drains: the resumed run must end on the
   uninterrupted run's counter tuple. Returns the restore time. *)
let check_restore inp doc =
  let t0 = now () in
  let restored =
    match Json.parse doc with
    | Error e -> Error ("checkpoint does not parse: " ^ e)
    | Ok j -> (
      match Serve.restore ~domains (Workloads.network inp.w) j with
      | Error e -> Error e
      | Ok s -> Ok (s, Option.bind (Json.member "cur_slot" j) Json.to_int))
  in
  let restore_ns = now () - t0 in
  (match restored with
   | Error e -> fail "checkpoint restore: %s" e
   | Ok (s, cur) ->
     let after = Option.value cur ~default:min_int in
     Workload.fold_lines_lenient (line_source inp.text)
       ~on_error:(fun _ -> ()) ~init:()
       ~f:(fun () ev -> if Workload.event_time ev > after then Serve.feed s ev);
     Serve.drain s;
     check_counters ~what:"restored pass" (counters (Serve.report s)));
  restore_ns

(* Set-up alone, repeated: network construction + Serve.create, the
   instance then stopped unused. Set-up is short next to a pass, so it
   gets its own samples for a steady median; they run after the passes,
   on the heap the passes grew, so no sample pays for heap growth. *)
let setup_samples inp ~seconds ~min =
  let budget = int_of_float (seconds *. 1e9) in
  let v = Stats.ivec () in
  Gc.full_major ();
  let t0 = now () in
  while Stats.length v < min || now () - t0 < budget do
    let config = inp.w.Workloads.config ~seed:inp.seed in
    let a = now () in
    let s =
      match Serve.create ~config ~domains (Workloads.network inp.w) with
      | Ok s -> s
      | Error e -> failwith ("Serve.create: " ^ e)
    in
    Stats.push v (now () - a);
    Serve.abort s
  done;
  Array.map float_of_int (Stats.to_array v)

(* One empty run_tasks round trip on a pool of the serving pool's size. *)
let barrier_ns ~pool_size ~shards =
  let pool = Domain_pool.create pool_size in
  let tasks = Array.make shards (fun () -> ()) in
  for _ = 1 to 200 do Domain_pool.run_tasks pool tasks done;
  let v = Stats.ivec () in
  for _ = 1 to 2000 do
    let t0 = now () in
    Domain_pool.run_tasks pool tasks;
    Stats.push v (now () - t0)
  done;
  Domain_pool.shutdown pool;
  Stats.median (Array.map float_of_int (Stats.to_array v))

(* Passes until the next one would overrun [seconds]; at least [min]. *)
let repeat ~seconds ~min f =
  let budget = int_of_float (seconds *. 1e9) in
  let t0 = now () in
  let rec go n acc =
    let acc = f n :: acc in
    let elapsed = now () - t0 in
    if n + 1 >= min && elapsed + elapsed / (n + 1) > budget then List.rev acc
    else go (n + 1) acc
  in
  go 0 []

(* --- metrics ---------------------------------------------------------------- *)

let fl = float_of_int
let events_per_s p = fl p.report.Serve.events /. (fl p.serve_ns /. 1e9)
let med f ps = Stats.median (Array.of_list (List.map f ps))

(* Mean of the per-shard mean waits, weighted by allocations. *)
let mean_wait (r : Serve.report) =
  let num, den =
    Array.fold_left
      (fun (n, d) (e : Engine.report) ->
        (n +. (e.Engine.mean_wait *. fl e.Engine.allocated), d + e.Engine.allocated))
      (0., 0) r.Serve.per_shard
  in
  if den = 0 then 0. else num /. fl den

let refused (r : Serve.report) =
  Stats.refused_ratio ~shed:r.Serve.shed ~expired:r.Serve.expired
    ~given_up:r.Serve.given_up ~left_pending:r.Serve.left_pending
    ~arrivals:r.Serve.arrivals

(* Slot latencies are summarized per pass and the pass medians
   reported, so one pass hit by a burst of host noise moves neither
   figure. Every pass must hold a p99 with ten samples beyond it. *)
let end_to_end ~setups ~peak_rss_kb passes =
  let r = (List.hd passes).report in
  List.iter
    (fun p ->
      let n = Stats.length p.slot_ns in
      match Stats.max_percentile n with
      | Some q when q >= 99. -> ()
      | _ -> fail "%d slot samples in a pass: too few for a p99 with 10 beyond it" n)
    passes;
  let slot_us q =
    med (fun p -> Stats.percentile (Stats.sorted_floats (Array.map fl (Stats.to_array p.slot_ns))) q /. 1e3) passes
  in
  [ ("events_per_s", med events_per_s passes, "1/s");
    ("slot_p50_us", slot_us 50., "us");
    ("slot_p99_us", slot_us 99., "us");
    ("setup_s",
     Stats.median (Array.append setups (Array.of_list (List.map (fun p -> fl p.setup_ns) passes)))
     /. 1e9, "s");
    ("peak_rss_mb", fl peak_rss_kb /. 1024., "MB");
    ("served_ratio", 1. -. refused r, "ratio") ]

(* Per-layer figures over every traced pass: each pass serves the same
   trace, so span totals divide by the pass count. *)
let per_layer inp ~untraced ~traced ~spans ~barrier ~restore_ns =
  let last = List.hd (List.rev traced) in
  let r = last.report in
  let n = fl (List.length traced) in
  let events = fl r.Serve.events in
  let total k = fl (Spans.total spans k) in
  let sorted v = Stats.sorted_floats (Array.map fl (Stats.to_array v)) in
  let p50 k = Stats.percentile (sorted (Spans.durations spans k)) 50. in
  let serve_ns = total Spans.Serve and parse = total Spans.Parse in
  let flushes = sorted (Spans.durations spans Spans.Flush) in
  let probe_rounds = r.Serve.borrows + r.Serve.starved in
  let barriers = Stats.barriers ~distinct_slots:inp.distinct_slots * List.length traced in
  let coverage =
    (parse +. total Spans.Feed +. total Spans.Flush +. total Spans.Drain) /. serve_ns
  in
  if Float.abs (1. -. coverage) > 0.05 then
    fail "span coverage %.4f: parse + feed + drain spans miss more than 5%% of the serve phase" coverage;
  (match Stats.max_percentile (Array.length flushes) with
   | Some p when p >= 99. -> ()
   | _ -> fail "%d flush samples: too few for a p99 with 10 beyond it" (Array.length flushes));
  let hook_cycles = Array.fold_left ( + ) 0 last.shard_cycles in
  if hook_cycles <> r.Serve.cycles then
    fail "cycle_hook saw %d cycles, report says %d" hook_cycles r.Serve.cycles;
  let ckpt = sorted last.snapshot_ns in
  let ckpt_bytes = sorted last.snapshot_bytes in
  let eps_untraced = med events_per_s untraced and eps_traced = med events_per_s traced in
  let count name v = (name, fl v, "count") in
  [ ("workload.parse_ns_per_event", parse /. (events *. n), "ns");
    ("workload.bytes_per_event", fl (String.length inp.text) /. events, "bytes");
    ("workload.parse_share", parse /. serve_ns, "ratio");
    ("shard.partition_ms", p50 Spans.Partition /. 1e6, "ms");
    ("serve.create_ms", p50 Spans.Create /. 1e6, "ms");
    ("serve.feed_buffered_ns_p50", p50 Spans.Feed, "ns");
    ("serve.flush_us_p50", Stats.percentile flushes 50. /. 1e3, "us");
    ("serve.flush_us_p99", Stats.percentile flushes 99. /. 1e3, "us");
    ("serve.flushes", fl (Array.length flushes) /. n, "count");
    ("serve.drain_ms", p50 Spans.Drain /. 1e6, "ms");
    count "serve.probe_rounds" probe_rounds;
    ("serve.borrow_yield",
     Stats.borrow_yield ~borrows:r.Serve.borrows ~starved:r.Serve.starved, "ratio");
    ("serve.refused_ratio", refused r, "ratio");
    ("engine.mean_wait_slots", mean_wait r, "slots");
    ("serve.span_coverage", coverage, "ratio");
    ("pool.barrier_us_p50", barrier /. 1e3, "us");
    ("pool.barrier_share",
     Stats.barrier_share ~barrier_ns:(int_of_float barrier) ~barriers
       ~serve_ns:(int_of_float serve_ns), "ratio");
    count "engine.cycles" r.Serve.cycles;
    ("engine.skip_ratio", Stats.ratio r.Serve.skipped_cycles r.Serve.cycles, "ratio");
    count "engine.solver_work" r.Serve.solver_work;
    ("engine.work_per_cycle", Stats.ratio r.Serve.solver_work r.Serve.cycles, "count");
    ("engine.alloc_per_cycle", Stats.ratio r.Serve.allocated r.Serve.cycles, "count");
    ("engine.shard_work_imbalance", Stats.imbalance last.shard_work, "ratio");
    ("gc.minor_words_per_event", last.minor_words /. events, "words");
    count "gc.minor_collections" last.minor_collections;
    count "gc.major_collections" last.major_collections;
    count "guard.shed" r.Serve.shed;
    count "guard.retries" r.Serve.retries;
    count "guard.given_up" r.Serve.given_up;
    count "guard.quarantines" r.Serve.quarantines;
    count "fault.applied" r.Serve.faults;
    count "fault.victims" r.Serve.victims;
    count "checkpoint.count" (Array.length ckpt);
    ("checkpoint.snapshot_ms_p50", Stats.percentile ckpt 50. /. 1e6, "ms");
    ("checkpoint.bytes_p50", Stats.percentile ckpt_bytes 50., "bytes");
    ("checkpoint.restore_ms", fl restore_ns /. 1e6, "ms");
    ("trace.overhead_pct", (eps_untraced -. eps_traced) /. eps_untraced *. 100., "%") ]

(* --- provenance stamp ---------------------------------------------------------- *)

(* Content digest of the sources the measured program is built from:
   the checkout the benchmark runs in need not be a git repository. *)
let source_digest () =
  let rec walk dir acc =
    match Sys.readdir dir with
    | exception Sys_error _ -> acc
    | entries ->
      Array.fold_left
        (fun acc e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then walk p acc
          else if List.exists (Filename.check_suffix e) [ ".ml"; ".mli"; ".c" ] || e = "dune"
          then p :: acc
          else acc)
        acc entries
  in
  let files = List.sort compare (walk "perfbench" (walk "lib" [])) in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.to_hex (Digest.file f)) files)))

let jnum v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref Workloads.recorded_seed in
  let seconds = ref 10. and trace = ref 0 and git_sha = ref "unknown" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME steady | sparse | overload");
      ("--seed", Arg.Set_int seed, "N trace seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--git-sha", Arg.Set_string git_sha, "SHA commit stamped on the result") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let inp = make_input w ~seed:!seed in
  Printf.printf "workload %s: %s, %d events over %d slots, %d bytes, seed %d\n%!"
    w.Workloads.name (Workloads.spec w) inp.lines inp.distinct_slots
    (String.length inp.text) inp.seed;
  let metrics, passes =
    if !trace = 0 then
      let passes = repeat ~seconds:(0.95 *. !seconds) ~min:3 (fun _ -> pass inp) in
      (* the serving passes' peak, before set-up alone runs *)
      let peak_rss_kb = maxrss_kb () in
      let setups = setup_samples inp ~seconds:(0.05 *. !seconds) ~min:5 in
      (end_to_end ~setups ~peak_rss_kb passes, passes)
    else begin
      let spans = Spans.create () in
      let last_from = ref 0 in
      let both =
        repeat ~seconds:!seconds ~min:2 (fun i ->
            if i mod 2 = 0 then `Untraced (pass inp)
            else begin
              last_from := Spans.length spans;
              `Traced (pass ~spans inp)
            end)
      in
      let untraced = List.filter_map (function `Untraced p -> Some p | _ -> None) both in
      let traced = List.filter_map (function `Traced p -> Some p | _ -> None) both in
      let b0 = now () in
      let barrier = barrier_ns ~pool_size:(min domains w.Workloads.planes) ~shards:w.Workloads.planes in
      ignore (Spans.add spans Spans.Barrier ~parent:(-1) ~start:b0 ~stop:(now ()));
      let restore_ns =
        match (List.hd (List.rev traced)).last_checkpoint with
        | None -> 0
        | Some doc ->
          let r0 = now () in
          let ns = check_restore inp doc in
          ignore (Spans.add spans Spans.Restore ~parent:(-1) ~start:r0 ~stop:(r0 + ns));
          ns
      in
      let file = Filename.concat ".bench_build" ("trace-" ^ w.Workloads.name ^ ".json") in
      (try
         if not (Sys.file_exists (Filename.dirname file)) then Sys.mkdir (Filename.dirname file) 0o755;
         Spans.write_chrome spans ~from:!last_from ~workload:w.Workloads.name file;
         Printf.printf "chrome trace: %s (%d spans)\n" file (Spans.length spans - !last_from)
       with Sys_error e -> fail "cannot write the chrome trace: %s" e);
      (per_layer inp ~untraced ~traced ~spans ~barrier ~restore_ns, untraced @ traced)
    end
  in
  (* A checkpointing workload's last checkpoint must restore (timed in
     the traced run above). *)
  if !trace = 0 then
    Option.iter (fun doc -> ignore (check_restore inp doc))
      (List.hd (List.rev passes)).last_checkpoint;
  let tuple = Option.get !reference in
  Printf.printf
    "stamp: {\"git_sha\":%S,\"source_digest\":%S,\"nproc\":%d,\"pool\":%d,\
     \"ocaml\":%S,\"workload\":%S,\"seed\":%d,\"passes\":%d,\"counters_digest\":%S}\n"
    !git_sha (source_digest ())
    (Domain.recommended_domain_count ())
    (min domains w.Workloads.planes) Sys.ocaml_version w.Workloads.name inp.seed
    (List.length passes) (digest tuple);
  Printf.printf "counters: %s\n"
    (String.concat " "
       (Array.to_list (Array.mapi (fun i n -> Printf.sprintf "%s=%d" n tuple.(i)) counter_names)));
  List.iter (fun m -> Printf.eprintf "check failed: %s\n" m) (List.rev !failures);
  let correct = !failures = [] in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct (inp.lines * List.length passes) !failed_ops
    (String.concat ","
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (jnum v) unit)
          metrics));
  exit (if correct then 0 else 1)
