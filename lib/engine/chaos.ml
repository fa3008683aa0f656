module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Workload = Rsin_sim.Workload
module Fault = Rsin_fault.Fault
module Prng = Rsin_util.Prng
module Json = Rsin_util.Json
module Policy = Rsin_guard.Policy

type outcome = {
  topology : string;
  slots : int;
  events : int;
  stream_errors : int;
  checks : int;
  faults : int;
  victims : int;
  shed : int;
  given_up : int;
  retries : int;
  quarantines : int;
  arrivals : int;
  completed : int;
  baseline_completed : int;
  throughput_retained : float;
  restore_identical : bool;
  token_soak : bool;
}

let pp_outcome fmt o =
  Format.fprintf fmt
    "@[<v>%s: %d slots, %d events, %d accounting checks (all held)@,\
     faults %d victims %d shed %d given up %d retries %d quarantines %d@,\
     stream errors dropped %d; kill/restore trajectory identical: %b%s@,\
     completed %d/%d arrivals; fault-free baseline %d; throughput retained \
     %.2f@]"
    o.topology o.slots o.events o.checks o.faults o.victims o.shed o.given_up
    o.retries o.quarantines o.stream_errors o.restore_identical
    (if o.token_soak then "; token mid-cycle soak passed" else "")
    o.completed o.arrivals o.baseline_completed o.throughput_retained

(* The guard policy of the storm phases: a tight queue bound so
   admission control actually sheds, a small retry budget so give-ups
   happen, and an aggressive flap detector so quarantines trigger. *)
let chaos_policy ~seed =
  Policy.v ~queue_bound:4 ~shed_policy:Policy.Deadline_aware ~retry_base:1
    ~retry_cap:16 ~retry_jitter:3 ~retry_budget:3 ~seed ~flap_k:2
    ~flap_window:40 ~quarantine_slots:60 ()

let chaos_config ~seed =
  Engine.Config.v ~transmission_time:2 ~guard:(Some (chaos_policy ~seed)) ()

(* Every element of every population can fail: a storm, not a drizzle. *)
let fault_storm rng ~slots net =
  Fault.inject rng net ~horizon:slots ~mtbf:40. ~mttr:10.
    ~links:(List.init (Network.n_links net) Fun.id)
    ~boxes:(List.init (Network.n_boxes net) Fun.id)
    ~ress:(List.init (Network.n_res net) Fun.id)

let workload rng ~slots net =
  Workload.synthesize ~mean_service:3.0 ~deadline_slack:25 ~cancel_prob:0.05
    rng net ~slots ~arrival_prob:0.35

let storm_trace ~seed ~slots net =
  let streams = Prng.split_n (Prng.create seed) 2 in
  let work = workload streams.(0) ~slots net in
  let sched = fault_storm streams.(1) ~slots net in
  Workload.sort_trace (work @ Workload.fault_events sched)

(* --- guarded serve runs with per-slot accounting assertions ------------- *)

(* Per-shard trajectory logs: the cycle hook runs on the shard's own
   domain, so each shard appends only to its own buffer (n_procs is a
   safe upper bound on the shard count — every shard holds at least one
   processor). Equality of these buffers is the byte-identical
   trajectory the kill/restore differential pins. *)
let trajectory_bufs net = Array.init (Network.n_procs net) (fun _ -> Buffer.create 256)

let log_cycle bufs ~shard _net (info : Engine.cycle_info) =
  Buffer.add_string bufs.(shard)
    (Printf.sprintf "t=%d a=%d map=%s\n" info.Engine.time info.Engine.allocated
       (String.concat ","
          (List.map
             (fun (p, r) -> Printf.sprintf "%d>%d" p r)
             info.Engine.mapping)))

type probe = {
  mutable serve : Serve.t option;
  mutable checks : int;
  mutable violations : string list;
}

let probe_hook p ~events:_ ~time:_ =
  match p.serve with
  | None -> ()
  | Some t -> (
    p.checks <- p.checks + 1;
    match Serve.check_accounting t with
    | Ok () -> ()
    | Error m -> p.violations <- m :: p.violations)

let final_check p t =
  p.checks <- p.checks + 1;
  (match Serve.check_accounting t with
  | Ok () -> ()
  | Error m -> p.violations <- m :: p.violations);
  match p.violations with
  | [] -> Ok ()
  | m :: _ -> Error m

let ( let* ) = Result.bind

(* Serve [trace] to completion under [config], asserting the accounting
   invariant after every flushed slot and at the end. *)
let guarded_run ~config ~trace net =
  let bufs = trajectory_bufs net in
  let p = { serve = None; checks = 0; violations = [] } in
  let* t =
    Serve.create ~config ~domains:2 ~cycle_hook:(log_cycle bufs)
      ~event_hook:(probe_hook p) net
  in
  p.serve <- Some t;
  List.iter (Serve.feed t) trace;
  Serve.drain t;
  let* () = final_check p t in
  Ok (Serve.report t, bufs, p.checks)

(* Same run, killed at mid-trace: checkpoint through the JSON codec's
   actual bytes, abort the first instance, restore a second one over a
   pristine network and feed it the rest of the trace. *)
let killed_run ~config ~trace ~kill_at net =
  let before, after =
    List.partition (fun ev -> Workload.event_time ev <= kill_at) trace
  in
  let bufs1 = trajectory_bufs net in
  let p1 = { serve = None; checks = 0; violations = [] } in
  let* t1 =
    Serve.create ~config ~domains:2 ~cycle_hook:(log_cycle bufs1)
      ~event_hook:(probe_hook p1) net
  in
  p1.serve <- Some t1;
  List.iter (Serve.feed t1) before;
  let bytes = Json.to_string (Serve.snapshot t1) in
  Serve.abort t1;
  let* () = match p1.violations with [] -> Ok () | m :: _ -> Error m in
  let* doc = Json.parse bytes in
  let bufs2 = trajectory_bufs net in
  let p2 = { serve = None; checks = 0; violations = [] } in
  let* t2 =
    Serve.restore ~domains:2 ~cycle_hook:(log_cycle bufs2)
      ~event_hook:(probe_hook p2) net doc
  in
  p2.serve <- Some t2;
  List.iter (Serve.feed t2) after;
  Serve.drain t2;
  let* () = final_check p2 t2 in
  let joined =
    Array.map2
      (fun b1 b2 -> Buffer.contents b1 ^ Buffer.contents b2)
      bufs1 bufs2
  in
  Ok (Serve.report t2, joined, p1.checks + p2.checks)

(* --- stream-robustness soak --------------------------------------------- *)

(* Corrupt a JSONL rendering of the trace: garbage lines, truncated
   objects, unknown event kinds, missing fields, well-formed events the
   router must refuse (an out-of-range processor or fault element, an
   arrival line sent twice) — then cut the stream mid-line as a
   disconnecting client would. The serve loop must drop every bad line
   or refused event and serve everything else. The out-of-range events
   carry a far-future slot so that they pass the slot-order check and
   reach the range checks. *)
let corruptions =
  [| "{oops"; "not json at all"; "{\"ev\":\"warp\",\"t\":1}";
     "{\"ev\":\"arrive\"}"; "{\"ev\":\"arrive\",\"t\":"; "[]"; "{}";
     "{\"t\":999999,\"ev\":\"arrive\",\"id\":-1,\"proc\":999999,\"service\":1}";
     "{\"t\":999999,\"ev\":\"fault\",\"kind\":\"link\",\"idx\":999999}" |]

let corrupt_lines ~seed trace =
  let rng = Prng.create (seed lxor 0x5eed) in
  let n = Array.length corruptions in
  List.concat_map
    (fun ev ->
      let line = String.trim (Workload.trace_to_jsonl [ ev ]) in
      if Prng.int rng 9 = 0 then
        match (Prng.int rng (n + 1), ev) with
        | k, _ when k < n -> [ corruptions.(k); line ]
        | _, Workload.Arrive _ -> [ line; line ]
        | _ -> [ line ]
      else [ line ])
    trace
  @ [ "{\"ev\":\"arrive\",\"t\":999999,\"id\":42" (* disconnect mid-line *) ]

let stream_run ~config ~trace ~seed net =
  let lines = corrupt_lines ~seed trace in
  let cursor = ref lines in
  let next () =
    match !cursor with
    | [] -> None
    | l :: rest ->
      cursor := rest;
      Some l
  in
  let p = { serve = None; checks = 0; violations = [] } in
  let* t = Serve.create ~config ~domains:2 ~event_hook:(probe_hook p) net in
  p.serve <- Some t;
  let errors = ref 0 in
  let fed =
    Workload.fold_lines_lenient next
      ~on_error:(fun (_ : Workload.parse_error) -> incr errors)
      ~init:0
      ~f:(fun n ev ->
        match Serve.feed t ev with
        | () -> n + 1
        | exception Invalid_argument _ ->
          incr errors;
          n)
  in
  Serve.drain t;
  let* () = final_check p t in
  if !errors = 0 then Error "chaos: corrupted stream produced no parse errors"
  else Ok (fed, !errors)

(* --- token-mode mid-cycle fault soak ------------------------------------- *)

(* Single-fabric topologies additionally run the distributed token
   protocol under clocked faults that strike mid-cycle, with the same
   per-slot accounting assertion (single engine: the sharded serve
   rejects token mode). *)
let token_soak ~seed ~slots net =
  let streams = Prng.split_n (Prng.create (seed + 1)) 2 in
  let work = workload streams.(0) ~slots net in
  let sched =
    Fault.inject_clocked streams.(1) net ~horizon:slots ~mtbf:60. ~mttr:15.
      ~clock_range:48
      ~links:(List.init (Network.n_links net) Fun.id)
      ~boxes:(List.init (Network.n_boxes net) Fun.id)
      ~ress:(List.init (Network.n_res net) Fun.id)
  in
  let trace =
    Workload.sort_trace (work @ Workload.fault_events_clocked sched)
  in
  let config =
    Engine.Config.v ~mode:Engine.Token ~transmission_time:2
      ~guard:(Some (chaos_policy ~seed)) ()
  in
  let eref = ref None in
  let violations = ref [] in
  let event_hook ~events:_ ~time:_ =
    match !eref with
    | None -> ()
    | Some e -> (
      match Engine.check_accounting e with
      | Ok () -> ()
      | Error m -> violations := m :: !violations)
  in
  let e = Engine.create ~config ~event_hook net in
  eref := Some e;
  List.iter (Engine.feed e) trace;
  Engine.drain e;
  (match Engine.check_accounting e with
  | Ok () -> ()
  | Error m -> violations := m :: !violations);
  match !violations with
  | [] -> Ok ()
  | m :: _ -> Error (Printf.sprintf "token soak: %s" m)

(* --- one topology through every phase ------------------------------------ *)

let run_topology ~seed ~slots ~name net =
  let config = chaos_config ~seed in
  let trace = storm_trace ~seed ~slots net in
  let wrap phase = Result.map_error (fun m -> name ^ ": " ^ phase ^ ": " ^ m) in
  (* Fault-free baseline under the same guard: what the storm run is
     measured against for throughput retention. *)
  let clean =
    List.filter
      (function Workload.Fault _ | Workload.Repair _ -> false | _ -> true)
      trace
  in
  let* baseline = wrap "baseline" (Serve.run ~config ~domains:2 net clean) in
  let* chaos_report, bufs_a, checks_a =
    wrap "storm" (guarded_run ~config ~trace net)
  in
  let* restored_report, joined_b, checks_b =
    wrap "kill/restore" (killed_run ~config ~trace ~kill_at:(slots / 2) net)
  in
  let restore_identical =
    Array.for_all2 (fun a b -> Buffer.contents a = b) bufs_a joined_b
    && chaos_report.Serve.completed = restored_report.Serve.completed
    && chaos_report.Serve.allocated = restored_report.Serve.allocated
    && chaos_report.Serve.victims = restored_report.Serve.victims
    && chaos_report.Serve.shed = restored_report.Serve.shed
    && chaos_report.Serve.given_up = restored_report.Serve.given_up
    && chaos_report.Serve.retries = restored_report.Serve.retries
    && chaos_report.Serve.quarantines = restored_report.Serve.quarantines
    && chaos_report.Serve.arrivals = restored_report.Serve.arrivals
  in
  let* () =
    if restore_identical then Ok ()
    else Error (name ^ ": kill/restore trajectory diverged from uninterrupted run")
  in
  let* _fed, stream_errors = wrap "stream" (stream_run ~config ~trace ~seed net) in
  let* token_soak_ran =
    match Shard.components net with
    | 1 ->
      let* () = wrap "token" (token_soak ~seed ~slots:(slots / 4) net) in
      Ok true
    | _ -> Ok false
  in
  Ok
    { topology = name;
      slots;
      events = List.length trace;
      stream_errors;
      checks = checks_a + checks_b;
      faults = chaos_report.Serve.faults;
      victims = chaos_report.Serve.victims;
      shed = chaos_report.Serve.shed;
      given_up = chaos_report.Serve.given_up;
      retries = chaos_report.Serve.retries;
      quarantines = chaos_report.Serve.quarantines;
      arrivals = chaos_report.Serve.arrivals;
      completed = chaos_report.Serve.completed;
      baseline_completed = baseline.Serve.completed;
      throughput_retained =
        (if baseline.Serve.completed = 0 then 1.
         else
           float_of_int chaos_report.Serve.completed
           /. float_of_int baseline.Serve.completed);
      restore_identical;
      token_soak = token_soak_ran }

let default_topologies () =
  [ ("omega8", Builders.omega 8);
    ("clos m3n4r4", Builders.clos ~m:3 ~n:4 ~r:4);
    ("multi2-omega8", Builders.multiplane ~planes:2 (Builders.omega 8)) ]

let run ?(quick = false) ?(seed = 0xC4A05) ?slots () =
  let slots =
    match slots with Some s -> s | None -> if quick then 300 else 2500
  in
  if slots < 20 then Error "chaos: need at least 20 slots"
  else
    List.fold_left
      (fun acc (name, net) ->
        let* outcomes = acc in
        let* o = run_topology ~seed ~slots ~name net in
        Ok (o :: outcomes))
      (Ok [])
      (default_topologies ())
    |> Result.map List.rev

let outcome_json o =
  Json.Obj
    [ ("topology", Json.Str o.topology);
      ("slots", Json.int o.slots);
      ("events", Json.int o.events);
      ("stream_errors", Json.int o.stream_errors);
      ("accounting_checks", Json.int o.checks);
      ("faults", Json.int o.faults);
      ("victims", Json.int o.victims);
      ("shed", Json.int o.shed);
      ("given_up", Json.int o.given_up);
      ("retries", Json.int o.retries);
      ("quarantines", Json.int o.quarantines);
      ("arrivals", Json.int o.arrivals);
      ("completed", Json.int o.completed);
      ("baseline_completed", Json.int o.baseline_completed);
      ("throughput_retained", Json.Num o.throughput_retained);
      ("restore_identical", Json.Bool o.restore_identical);
      ("token_soak", Json.Bool o.token_soak) ]

let report_json outcomes =
  Json.Obj
    [ ("schema", Json.Str "rsin-chaos-report/v1");
      ("topologies", Json.Arr (List.map outcome_json outcomes)) ]
