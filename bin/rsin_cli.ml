(* rsin: command-line front end for the RSIN library.

   Subcommands:
     info      - describe a network topology
     dot       - emit a Graphviz rendering of a network
     schedule  - schedule a request/resource snapshot
     trace     - run the distributed token architecture and print the bus trace
     blocking  - Monte-Carlo blocking-probability estimate
     simulate  - dynamic discrete-time simulation
     replay    - serve a recorded/synthetic workload through the online engine

   Network specifications (the NET argument):
     omega:N         Lawrie Omega, N a power of two
     omega-paper:N   Omega with the paper's input numbering
     omega+E:N       Omega with E extra stages
     butterfly:N     indirect binary n-cube
     baseline:N      Wu-Feng baseline
     benes:N         Benes rearrangeable network
     gamma:N         Parker-Raghavendra gamma network
     adm:N           augmented-data-manipulator-style network
     flip:N          Batcher Flip network (inverse Omega)
     delta:Q^S       delta network, radix Q, S stages
     delta-ab:AxB^S  asymmetric delta, A^S processors x B^S resources
     clos:M,N,R      3-stage Clos
     crossbar:P,R    P x R crossbar *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Scheduler = Rsin_core.Scheduler
module Heuristic = Rsin_core.Heuristic
module Token_sim = Rsin_distributed.Token_sim
module Bus = Rsin_distributed.Status_bus
module Blocking = Rsin_sim.Blocking
module Dynamic = Rsin_sim.Dynamic
module Workload = Rsin_sim.Workload
module Prng = Rsin_util.Prng
module Table = Rsin_util.Table
module Fault = Rsin_fault.Fault
module Solver = Rsin_flow.Solver
module Obs = Rsin_obs.Obs
module Trace = Rsin_obs.Trace
module Metrics = Rsin_obs.Metrics
module Bench_report = Rsin_obs.Bench_report
module Json = Rsin_util.Json
module Guard_policy = Rsin_guard.Policy
open Cmdliner

(* --- network specification parsing -------------------------------------- *)

let rec parse_net spec =
  let fail msg = Error (`Msg msg) in
  match String.index_opt spec ':' with
  | None -> fail "network spec must look like omega:8 (see --help)"
  | Some i ->
    let kind = String.sub spec 0 i in
    let arg = String.sub spec (i + 1) (String.length spec - i - 1) in
    let int_arg () =
      match int_of_string_opt arg with
      | Some n -> Ok n
      | None -> fail (Printf.sprintf "bad size %S" arg)
    in
    (try
       match kind with
       | "omega" -> Result.map Builders.omega (int_arg ())
       | "omega-paper" -> Result.map Builders.omega_paper (int_arg ())
       | "butterfly" | "cube" -> Result.map Builders.butterfly (int_arg ())
       | "baseline" -> Result.map Builders.baseline (int_arg ())
       | "benes" -> Result.map Builders.benes (int_arg ())
       | "gamma" -> Result.map Builders.gamma (int_arg ())
       | "flip" -> Result.map Builders.flip (int_arg ())
       | "adm" -> Result.map Builders.adm (int_arg ())
       | "delta" ->
         (match String.split_on_char '^' arg with
         | [ q; s ] ->
           (match (int_of_string_opt q, int_of_string_opt s) with
           | Some radix, Some stages -> Ok (Builders.delta ~radix ~stages)
           | _ -> fail "delta spec: delta:Q^S")
         | _ -> fail "delta spec: delta:Q^S")
       | "delta-ab" ->
         (match String.split_on_char '^' arg with
         | [ ab; s ] ->
           (match
              ( List.filter_map int_of_string_opt (String.split_on_char 'x' ab),
                int_of_string_opt s )
            with
           | [ a; b ], Some stages -> Ok (Builders.delta_ab ~a ~b ~stages)
           | _ -> fail "delta-ab spec: delta-ab:AxB^S")
         | _ -> fail "delta-ab spec: delta-ab:AxB^S")
       | "multi" ->
         (* multi:K:SPEC — K disjoint planes of any base spec, e.g.
            multi:4:omega:256 is a 1024-port four-plane Omega. This is
            the natural input of [rsin serve]: each plane shards onto
            its own core. *)
         (match String.index_opt arg ':' with
         | Some j ->
           let planes = String.sub arg 0 j in
           let sub = String.sub arg (j + 1) (String.length arg - j - 1) in
           (match int_of_string_opt planes with
           | Some planes when planes >= 1 ->
             Result.map (Builders.multiplane ~planes) (parse_net sub)
           | _ -> fail "multi spec: multi:K:SPEC (K >= 1)")
         | None -> fail "multi spec: multi:K:SPEC")
       | "clos" ->
         (match List.filter_map int_of_string_opt (String.split_on_char ',' arg) with
         | [ m; n; r ] -> Ok (Builders.clos ~m ~n ~r)
         | _ -> fail "clos spec: clos:M,N,R")
       | "crossbar" ->
         (match List.filter_map int_of_string_opt (String.split_on_char ',' arg) with
         | [ p; r ] -> Ok (Builders.crossbar ~n_procs:p ~n_res:r)
         | _ -> fail "crossbar spec: crossbar:P,R")
       | _ ->
         if String.length kind > 6 && String.sub kind 0 6 = "omega+" then
           match
             ( int_of_string_opt (String.sub kind 6 (String.length kind - 6)),
               int_of_string_opt arg )
           with
           | Some extra, Some n -> Ok (Builders.extra_stage_omega n ~extra)
           | _ -> fail "extra-stage spec: omega+E:N"
         else fail (Printf.sprintf "unknown network kind %S" kind)
     with Invalid_argument msg -> fail msg)

let net_conv =
  Arg.conv
    ( parse_net,
      fun fmt net -> Format.fprintf fmt "%s" (Network.name net) )

let net_arg =
  Arg.(
    required
    & pos 0 (some net_conv) None
    & info [] ~docv:"NET" ~doc:"Network specification, e.g. omega:8.")

(* --- shared option parsing ----------------------------------------------- *)

let int_list_conv =
  Arg.conv
    ( (fun s ->
        let parts = String.split_on_char ',' (String.trim s) in
        let parsed = List.filter_map int_of_string_opt parts in
        if List.length parsed = List.length parts && parts <> [] then Ok parsed
        else Error (`Msg "expected a comma-separated integer list")),
      fun fmt l ->
        Format.fprintf fmt "%s" (String.concat "," (List.map string_of_int l)) )

let requests_arg =
  Arg.(
    value
    & opt (some int_list_conv) None
    & info [ "requests" ] ~docv:"P,P,..."
        ~doc:"Requesting processors (default: a random snapshot).")

let free_arg =
  Arg.(
    value
    & opt (some int_list_conv) None
    & info [ "free" ] ~docv:"R,R,..."
        ~doc:"Free resource ports (default: a random snapshot).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.")

let pre_arg =
  Arg.(
    value & opt int 0
    & info [ "pre" ] ~doc:"Random circuits to pre-establish before scheduling.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Record a trace of the run and write it to $(docv).")

let trace_format_arg =
  let fmt_conv = Arg.enum [ ("jsonl", Trace.Jsonl); ("chrome", Trace.Chrome) ] in
  Arg.(
    value & opt fmt_conv Trace.Jsonl
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:"Trace file format: $(b,jsonl) (one JSON event per line) or \
              $(b,chrome) (trace_event array for chrome://tracing / \
              Perfetto).")

let solver_arg =
  (* Names and doc come straight from the registry, so the help text
     cannot drift from the solvers actually linked in. *)
  let names = Solver.names () in
  let solver_conv = Arg.enum (List.map (fun n -> (n, n)) names) in
  Arg.(
    value & opt solver_conv "dinic"
    & info [ "solver" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Max-flow solver for the optimal (flow-based) scheduling paths: \
              %s. Schedulers that do not run a flow solver ignore it. It \
              picks the from-scratch solver of the snapshot and \
              rebuild-per-cycle paths; the warm engine ($(b,--mode warm), \
              the default of $(b,replay) and $(b,serve)) always runs its \
              incremental augmentation on the flat zero-allocation CSR \
              core, whatever the name."
             (String.concat ", "
                (List.map (fun n -> Printf.sprintf "$(b,%s)" n) names))))

(* The option quartet shared by every simulating subcommand, bundled
   into one term so a command picks up all four (with identical docs)
   by composing [common_term] exactly once. *)
type common = {
  seed : int;
  trace_out : string option;
  trace_format : Trace.format;
  solver : string;
}

let common_term =
  let mk seed trace_out trace_format solver =
    { seed; trace_out; trace_format; solver }
  in
  Term.(const mk $ seed_arg $ trace_out_arg $ trace_format_arg $ solver_arg)

let solver_of c = Solver.get c.solver

let schedule_t1 ?obs c net ~requests ~free =
  let module T1 = Rsin_core.Transform1 in
  T1.solve_with ?obs (solver_of c) (T1.build net ~requests ~free)

(* Runs [f] with a recording observer when --trace-out was given (writing
   the trace afterwards), with no observer otherwise. *)
let with_obs trace_out format f =
  match trace_out with
  | None -> f None
  | Some file ->
    let obs = Obs.recording () in
    let result = f (Some obs) in
    (try Trace.write_file obs.Obs.trace ~format file
     with Sys_error msg ->
       Printf.eprintf "rsin: cannot write trace: %s\n" msg;
       exit 1);
    Printf.printf "trace: %d event(s) -> %s\n" (Trace.event_count obs.Obs.trace)
      file;
    result

let snapshot rng net requests free =
  let requests, free =
    match (requests, free) with
    | Some r, Some f -> (r, f)
    | r, f ->
      let rr, ff = Workload.snapshot rng net in
      (Option.value r ~default:rr, Option.value f ~default:ff)
  in
  let busy_p, busy_r = Workload.occupied_endpoints net in
  ( List.filter (fun p -> not (List.mem p busy_p)) requests,
    List.filter (fun r -> not (List.mem r busy_r)) free )

(* --- info ------------------------------------------------------------------ *)

let info_cmd =
  let run net =
    Format.printf "%a@." Network.pp_summary net;
    Printf.printf "full access: %b\n" (Builders.full_access net);
    for s = 0 to Network.stages net - 1 do
      let boxes = Network.boxes_in_stage net s in
      let spec = Network.box_spec net (List.hd boxes) in
      Printf.printf "stage %d: %d boxes of %dx%d\n" s (List.length boxes)
        spec.Network.fan_in spec.Network.fan_out
    done
  in
  Cmd.v (Cmd.info "info" ~doc:"Describe a network topology")
    Term.(const run $ net_arg)

(* --- dot ------------------------------------------------------------------- *)

let dot_cmd =
  let run net pre seed =
    let rng = Prng.create seed in
    if pre > 0 then ignore (Workload.preoccupy rng net ~circuits:pre);
    print_string (Network.to_dot net)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a Graphviz rendering of the network")
    Term.(const run $ net_arg $ pre_arg $ seed_arg)

(* --- schedule ---------------------------------------------------------------- *)

let scheduler_enum =
  Arg.enum
    [ ("optimal", `Optimal); ("distributed", `Distributed);
      ("first-fit", `First_fit); ("random-fit", `Random_fit);
      ("address-map", `Address_map) ]

let scheduler_arg =
  Arg.(
    value & opt scheduler_enum `Optimal
    & info [ "scheduler" ] ~docv:"S"
        ~doc:"One of optimal, distributed, first-fit, random-fit, address-map.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"With the optimal scheduler: print the min-cut bottleneck \
              limiting the allocation.")

let schedule_cmd =
  let run net requests free scheduler pre explain c =
    let rng = Prng.create c.seed in
    if pre > 0 then ignore (Workload.preoccupy rng net ~circuits:pre);
    let requests, free = snapshot rng net requests free in
    Printf.printf "requests: %s\nfree:     %s\n"
      (String.concat "," (List.map string_of_int requests))
      (String.concat "," (List.map string_of_int free));
    with_obs c.trace_out c.trace_format @@ fun obs ->
    let mapping, allocated =
      match scheduler with
      | `Optimal ->
        let tr = Rsin_core.Transform1.build net ~requests ~free in
        let o = Rsin_core.Transform1.solve_with ?obs (solver_of c) tr in
        if explain then begin
          let cut = Rsin_core.Transform1.bottleneck tr in
          Printf.printf "bottleneck (min cut, %d elements):\n" (List.length cut);
          List.iter
            (function
              | `Link l ->
                Printf.printf "  link %d: %s -> %s\n" l
                  (Network.endpoint_to_string (Network.link_src net l))
                  (Network.endpoint_to_string (Network.link_dst net l))
              | `Proc p -> Printf.printf "  processor p%d (its own request arc)\n" p
              | `Res r -> Printf.printf "  resource r%d (its own resource arc)\n" r)
            cut
        end;
        (o.Rsin_core.Transform1.mapping, o.Rsin_core.Transform1.allocated)
      | `Distributed ->
        let o = Token_sim.run ?obs net ~requests ~free in
        (o.Token_sim.mapping, o.Token_sim.allocated)
      | `First_fit | `Random_fit | `Address_map ->
        let policy =
          match scheduler with
          | `First_fit -> Heuristic.First_fit
          | `Random_fit -> Heuristic.Random_fit rng
          | _ -> Heuristic.Address_map rng
        in
        let o = Heuristic.schedule net ~requests ~free policy in
        (o.Heuristic.mapping, o.Heuristic.allocated)
    in
    Printf.printf "allocated %d/%d:\n" allocated (List.length requests);
    List.iter
      (fun (p, r) -> Printf.printf "  p%d -> r%d\n" p r)
      (List.sort compare mapping)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Schedule a request/resource snapshot")
    Term.(
      const run $ net_arg $ requests_arg $ free_arg $ scheduler_arg $ pre_arg
      $ explain_arg $ common_term)

(* --- trace ------------------------------------------------------------------- *)

(* "CLK:FAULT,CLK:FAULT,..." with FAULT one of linkN / boxN / resN /
   stuck0=eK / stuck1=eK / clear=eK. *)
let mid_faults_conv =
  let bus_event = function
    | "e1" -> Some Bus.E1_request_pending
    | "e2" -> Some Bus.E2_resource_ready
    | "e3" -> Some Bus.E3_request_token_phase
    | "e4" -> Some Bus.E4_resource_token_phase
    | "e5" -> Some Bus.E5_path_registration
    | "e6" -> Some Bus.E6_rs_received_token
    | "e7" -> Some Bus.E7_rq_bonded
    | _ -> None
  in
  let parse_fault s =
    let tail prefix =
      let lp = String.length prefix in
      if String.length s > lp && String.sub s 0 lp = prefix then
        Some (String.sub s lp (String.length s - lp))
      else None
    in
    let num prefix mk =
      match Option.bind (tail prefix) int_of_string_opt with
      | Some i when i >= 0 -> Some (mk i)
      | _ -> None
    in
    let bit prefix mk =
      Option.map mk (Option.bind (tail prefix) bus_event)
    in
    List.find_map Fun.id
      [ num "link" (fun l -> Token_sim.Dead_link l);
        num "box" (fun b -> Token_sim.Dead_box b);
        num "res" (fun r -> Token_sim.Dead_res r);
        bit "stuck0=" (fun e -> Token_sim.Stuck_bit (e, Bus.Stuck_at_0));
        bit "stuck1=" (fun e -> Token_sim.Stuck_bit (e, Bus.Stuck_at_1));
        bit "clear=" (fun e -> Token_sim.Clear_bit e) ]
  in
  let parse_entry s =
    match String.index_opt s ':' with
    | None ->
      Error (`Msg (Printf.sprintf "bad fault %S: expected CLOCK:FAULT" s))
    | Some i ->
      let clk = String.sub s 0 i
      and f = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt clk with
      | Some clk when clk >= 0 ->
        (match parse_fault f with
        | Some mf -> Ok (clk, mf)
        | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "bad fault %S: FAULT is linkN, boxN, resN, stuck0=eK, \
                   stuck1=eK or clear=eK"
                  s)))
      | _ ->
        Error
          (`Msg
             (Printf.sprintf "bad fault %S: CLOCK must be an integer >= 0" s)))
  in
  let parse spec =
    List.fold_left
      (fun acc s ->
        match acc with
        | Error _ as e -> e
        | Ok l -> Result.map (fun e -> e :: l) (parse_entry (String.trim s)))
      (Ok [])
      (String.split_on_char ',' spec)
    |> Result.map List.rev
  in
  Arg.conv
    ( parse,
      fun fmt sched ->
        Format.fprintf fmt "%s"
          (String.concat ","
             (List.map
                (fun (clk, f) ->
                  Printf.sprintf "%d:%s" clk (Token_sim.mid_fault_name f))
                sched)) )

let mid_faults_arg =
  Arg.(
    value
    & opt mid_faults_conv []
    & info [ "mid-cycle-faults" ] ~docv:"SPEC"
        ~doc:"Inject faults mid-cycle at status-bus clock granularity: a \
              comma-separated list of $(i,CLOCK):$(i,FAULT) entries, FAULT \
              one of $(b,linkN), $(b,boxN), $(b,resN) (the element dies at \
              that clock, killing its tokens and markings), \
              $(b,stuck0=eK) / $(b,stuck1=eK) (status-bus bit EK sticks at \
              0/1) or $(b,clear=eK) (the stuck-at clears). The protocol \
              detects each fault (phase watchdogs, driver readback, \
              link-level aborts), rolls back the damaged iteration and \
              re-runs on the surviving subnetwork.")

let trace_cmd =
  let run net requests free pre mid_faults c =
    let rng = Prng.create c.seed in
    if pre > 0 then ignore (Workload.preoccupy rng net ~circuits:pre);
    let requests, free = snapshot rng net requests free in
    with_obs c.trace_out c.trace_format @@ fun obs ->
    let rep =
      try Token_sim.run ?obs ~faults:mid_faults net ~requests ~free
      with Invalid_argument msg ->
        Printf.eprintf "rsin: %s\n" msg;
        exit 1
    in
    Printf.printf "allocated %d/%d in %d iteration(s), %d clock periods\n"
      rep.Token_sim.allocated rep.Token_sim.requested rep.Token_sim.iterations
      rep.Token_sim.total_clocks;
    (* Fault-free runs keep the historical output byte for byte; the
       recovery summary appears only when faults were injected. *)
    if mid_faults <> [] then begin
      let r = rep.Token_sim.recovery in
      Printf.printf
        "recovery: %d fault(s) applied, %d watchdog fire(s), %d iteration \
         abort(s), %d cycle restart(s), %d retry(ies), %d wait clock(s)%s\n"
        r.Token_sim.faults_applied r.Token_sim.watchdog_fires
        r.Token_sim.iteration_aborts r.Token_sim.cycle_restarts
        r.Token_sim.retries r.Token_sim.wait_clocks
        (if r.Token_sim.completed then "" else " -- gave up")
    end;
    print_newline ();
    Format.printf "%a@?" Token_sim.pp_trace rep
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run the distributed token architecture and print the bus trace")
    Term.(
      const run $ net_arg $ requests_arg $ free_arg $ pre_arg $ mid_faults_arg
      $ common_term)

(* --- blocking ------------------------------------------------------------------ *)

let blocking_cmd =
  let trials_arg =
    Arg.(value & opt int 1000 & info [ "trials" ] ~doc:"Monte-Carlo trials.")
  in
  let density_arg name =
    Arg.(
      value & opt float 0.5
      & info [ name ] ~doc:"Density in [0,1] for the random snapshots.")
  in
  let run spec trials req_d res_d pre c =
    let scheds =
      [ Blocking.Optimal; Blocking.First_fit; Blocking.Random_fit;
        Blocking.Address_map ]
    in
    let cfg =
      { Blocking.trials; req_density = req_d; res_density = res_d;
        pre_circuits = pre }
    in
    with_obs c.trace_out c.trace_format @@ fun obs ->
    Table.print
      ~header:[ "scheduler"; "blocking"; "ci95"; "utilization"; "trials" ]
      (List.map
         (fun s ->
           let e =
             Blocking.estimate ?obs ~config:cfg ~solver:(solver_of c)
               ~scheduler:s (Prng.create c.seed)
               (fun () ->
                 match parse_net spec with
                 | Ok net -> net
                 | Error (`Msg m) -> failwith m)
           in
           [ Blocking.scheduler_name s;
             Table.fpct e.Blocking.mean_blocking;
             "+-" ^ Table.fpct e.Blocking.ci95;
             Table.fpct e.Blocking.utilization;
             string_of_int e.Blocking.trials_used ])
         scheds)
  in
  let spec_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NET" ~doc:"Network specification, e.g. omega:8.")
  in
  Cmd.v
    (Cmd.info "blocking" ~doc:"Monte-Carlo blocking-probability estimate")
    Term.(
      const run $ spec_arg $ trials_arg $ density_arg "req-density"
      $ density_arg "res-density" $ pre_arg $ common_term)

(* --- simulate ------------------------------------------------------------------ *)

let simulate_cmd =
  let arrival_arg =
    Arg.(
      value & opt float 0.2
      & info [ "arrival" ] ~doc:"Per-processor arrival probability per slot.")
  in
  let slots_arg =
    Arg.(value & opt int 2000 & info [ "slots" ] ~doc:"Measured slots.")
  in
  let service_arg =
    Arg.(value & opt float 4.0 & info [ "service" ] ~doc:"Mean service time.")
  in
  let run net arrival slots service c =
    let params =
      { Dynamic.arrival_prob = arrival; transmission_time = 1;
        mean_service = service; slots; warmup = slots / 5 }
    in
    with_obs c.trace_out c.trace_format @@ fun obs ->
    let m =
      Dynamic.run ?obs ~solver:(solver_of c) (Prng.create c.seed) net params
    in
    Table.print
      ~header:[ "metric"; "value" ]
      [
        [ "throughput (tasks/slot)"; Table.ffix 3 m.Dynamic.throughput ];
        [ "offered load (tasks/slot)"; Table.ffix 3 m.Dynamic.offered_load ];
        [ "resource utilization"; Table.fpct m.Dynamic.resource_utilization ];
        [ "mean queue per processor"; Table.ffix 2 m.Dynamic.mean_queue ];
        [ "mean wait (slots)"; Table.ffix 2 m.Dynamic.mean_wait ];
        [ "completed tasks"; string_of_int m.Dynamic.completed ];
        [ "blocked scheduling cycles"; Table.fpct m.Dynamic.blocked_cycle_fraction ];
      ]
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Dynamic discrete-time simulation")
    Term.(
      const run $ net_arg $ arrival_arg $ slots_arg $ service_arg
      $ common_term)

(* --- shared packet-fabric options -------------------------------------------- *)

(* Names and doc come from the arbiter registry, mirroring solver_arg. *)
let arbiter_arg =
  let names = Rsin_packet.Arbiter.names () in
  let arb_conv = Arg.enum (List.map (fun n -> (n, n)) names) in
  Arg.(
    value & opt arb_conv "islip"
    & info [ "arbiter" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Per-switchbox crossbar arbiter for the packet fabric: %s."
             (String.concat ", "
                (List.map (fun n -> Printf.sprintf "$(b,%s)" n) names))))

let vq_depth_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "vq-depth" ] ~docv:"K"
        ~doc:"Per-VOQ buffer capacity in flits (default: unbounded).")

let flits_arg ~default =
  Arg.(
    value & opt int default
    & info [ "flits" ] ~docv:"F"
        ~doc:"Flits per task packet on the packet fabric.")

let check_packet_args ~vq_depth ~flits =
  (match vq_depth with
  | Some k when k < 1 ->
    Printf.eprintf "rsin: --vq-depth must be >= 1\n";
    exit 1
  | Some _ | None -> ());
  if flits < 1 then begin
    Printf.eprintf "rsin: --flits must be >= 1\n";
    exit 1
  end

(* --- shared engine/workload options ------------------------------------------ *)

(* Every flag `rsin replay` and `rsin serve` have in common — the
   synthetic-workload family, all the Engine.Config knobs and the fault
   injection plan — factored into one record + term bundle (like
   [common_term]) so the two subcommands cannot drift: serve composes
   [engine_opts_term] verbatim. *)
(* Strictly-positive argument converters: a zero or negative --mtbf,
   --mttr or --checkpoint-every is a flag-syntax error rejected at parse
   time, before any network or engine is built. *)
let pos_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0. && Float.is_finite f -> Ok f
    | Some _ -> Error (`Msg (Printf.sprintf "value %s must be > 0" s))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a number" s))
  in
  Arg.conv ~docv:"VAL" (parse, fun ppf f -> Format.fprintf ppf "%g" f)

let pos_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "value %s must be > 0" s))
    | None ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

type engine_opts = {
  eo_discipline : [ `Uniform | `Priority ];
  eo_levels : int;
  eo_slots : int;
  eo_arrival : float;
  eo_service : float;
  eo_cancel : float;
  eo_slack : int option;
  eo_threshold : int;
  eo_defer : int;
  eo_trans : int;
  eo_faults : bool;
  eo_mtbf : float;
  eo_mttr : float;
  eo_granularity : [ `Slot | `Clock ];
  eo_heartbeat : int;
  eo_guard : bool;
  eo_queue_bound : int;
  eo_shed : Guard_policy.shed_policy;
  eo_retry_budget : int;
  eo_flap_k : int;
  eo_flap_window : int;
  eo_quarantine : int;
}

let engine_opts_term =
  let discipline_arg =
    let disc_conv = Arg.enum [ ("uniform", `Uniform); ("priority", `Priority) ] in
    Arg.(
      value & opt disc_conv `Uniform
      & info [ "discipline" ] ~docv:"DISC"
          ~doc:"Serving discipline: $(b,uniform) (Transformation 1: any \
                maximum allocation per cycle) or $(b,priority) \
                (Transformation 2: maximum allocation, then maximum total \
                priority of the queue heads served; priorities come from \
                the trace).")
  in
  let levels_arg =
    Arg.(
      value & opt int 0
      & info [ "priority-levels" ] ~docv:"K"
          ~doc:"Synthetic trace: draw each task's priority uniformly from \
                [1, K] (0, the default, leaves all priorities 0).")
  in
  let slots_arg =
    Arg.(value & opt int 200 & info [ "slots" ] ~doc:"Synthetic trace: arrival slots.")
  in
  let arrival_arg =
    Arg.(
      value & opt float 0.2
      & info [ "arrival" ]
          ~doc:"Synthetic trace: per-processor arrival probability per slot.")
  in
  let service_arg =
    Arg.(
      value & opt float 4.0
      & info [ "service" ] ~doc:"Synthetic trace: mean service time.")
  in
  let cancel_arg =
    Arg.(
      value & opt float 0.0
      & info [ "cancel" ] ~doc:"Synthetic trace: cancellation probability.")
  in
  let slack_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-slack" ] ~docv:"K"
          ~doc:"Synthetic trace: deadline uniform in [t+1, t+K].")
  in
  let threshold_arg =
    Arg.(
      value & opt int 1
      & info [ "threshold" ]
          ~doc:"Pending requests to batch before entering a scheduling cycle.")
  in
  let defer_arg =
    Arg.(
      value & opt int 16
      & info [ "max-defer" ]
          ~doc:"Force a cycle once the oldest pending request is this old.")
  in
  let trans_arg =
    Arg.(
      value & opt int 1
      & info [ "transmission" ] ~doc:"Slots a circuit stays established.")
  in
  let faults_arg =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:"Inject a random fault/repair schedule (seeded MTBF/MTTR \
                renewal process over links, boxes and resource ports) into \
                the served trace. A fault tears down circuits transmitting \
                through the dead element and re-queues their tasks at the \
                head of their queue.")
  in
  let mtbf_arg =
    Arg.(
      value & opt pos_float_conv 80.0
      & info [ "mtbf" ] ~docv:"SLOTS"
          ~doc:"Mean slots between failures per element (with $(b,--faults)); \
                must be > 0.")
  in
  let mttr_arg =
    Arg.(
      value & opt pos_float_conv 20.0
      & info [ "mttr" ] ~docv:"SLOTS"
          ~doc:"Mean slots to repair a failed element (with $(b,--faults)); \
                must be > 0.")
  in
  let granularity_arg =
    let gran_conv = Arg.enum [ ("slot", `Slot); ("clock", `Clock) ] in
    Arg.(
      value & opt gran_conv `Slot
      & info [ "fault-clock-granularity" ] ~docv:"G"
          ~doc:"With $(b,--faults): $(b,slot) (default) applies each fault \
                at its slot's cycle boundary; $(b,clock) additionally draws \
                a uniform intra-cycle status-bus clock per fault, so under \
                $(b,--mode token) the element dies mid-cycle and the \
                distributed protocol must detect it and recover. Other \
                modes ignore the clocks.")
  in
  let heartbeat_arg =
    Arg.(
      value & opt int 0
      & info [ "heartbeat" ] ~docv:"N"
          ~doc:"Every $(docv) consumed trace events, print one progress line \
                (slot, events, cycles, allocated, solver work) to stderr. 0 \
                (the default) disables the heartbeat.")
  in
  let guard_arg =
    Arg.(
      value & flag
      & info [ "guard" ]
          ~doc:"Enable the robustness guard layer: admission control \
                (bounded pending queues, see $(b,--queue-bound) and \
                $(b,--shed-policy)), capped-exponential backoff \
                re-admission of fault victims with a per-task retry budget \
                ($(b,--retry-budget)), and flap-detecting element \
                quarantine ($(b,--flap-k), $(b,--flap-window), \
                $(b,--quarantine-slots)). Off by default: without it the \
                engine behaves exactly as before the guard layer existed.")
  in
  let queue_bound_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:"With $(b,--guard): max pending tasks per processor queue \
                before admission control sheds (0 = unbounded).")
  in
  let shed_arg =
    let shed_conv =
      Arg.enum
        [ ("drop-tail", Guard_policy.Drop_tail);
          ("deadline-aware", Guard_policy.Deadline_aware) ]
    in
    Arg.(
      value & opt shed_conv Guard_policy.Drop_tail
      & info [ "shed-policy" ] ~docv:"POLICY"
          ~doc:"With $(b,--guard): what a full queue sheds — \
                $(b,drop-tail) (the newcomer) or $(b,deadline-aware) (the \
                pending task with least remaining deadline slack, the one \
                most likely to expire anyway).")
  in
  let retry_budget_arg =
    Arg.(
      value & opt int 8
      & info [ "retry-budget" ] ~docv:"N"
          ~doc:"With $(b,--guard): teardowns a task survives before the \
                engine gives it up (0 = give up on first victimization).")
  in
  let flap_k_arg =
    Arg.(
      value & opt int 3
      & info [ "flap-k" ] ~docv:"K"
          ~doc:"With $(b,--guard): faults within $(b,--flap-window) slots \
                that quarantine an element (0 disables quarantine).")
  in
  let flap_window_arg =
    Arg.(
      value & opt pos_int_conv 50
      & info [ "flap-window" ] ~docv:"SLOTS"
          ~doc:"With $(b,--guard): sliding fault-counting window.")
  in
  let quarantine_arg =
    Arg.(
      value & opt pos_int_conv 100
      & info [ "quarantine-slots" ] ~docv:"SLOTS"
          ~doc:"With $(b,--guard): cooling-off period of a quarantined \
                element (excluded from allocation even while nominally up).")
  in
  let mk eo_discipline eo_levels eo_slots eo_arrival eo_service eo_cancel
      eo_slack eo_threshold eo_defer eo_trans eo_faults eo_mtbf eo_mttr
      eo_granularity eo_heartbeat eo_guard eo_queue_bound eo_shed
      eo_retry_budget eo_flap_k eo_flap_window eo_quarantine =
    { eo_discipline; eo_levels; eo_slots; eo_arrival; eo_service; eo_cancel;
      eo_slack; eo_threshold; eo_defer; eo_trans; eo_faults; eo_mtbf; eo_mttr;
      eo_granularity; eo_heartbeat; eo_guard; eo_queue_bound; eo_shed;
      eo_retry_budget; eo_flap_k; eo_flap_window; eo_quarantine }
  in
  Term.(
    const mk $ discipline_arg $ levels_arg $ slots_arg $ arrival_arg
    $ service_arg $ cancel_arg $ slack_arg $ threshold_arg $ defer_arg
    $ trans_arg $ faults_arg $ mtbf_arg $ mttr_arg $ granularity_arg
    $ heartbeat_arg $ guard_arg $ queue_bound_arg $ shed_arg
    $ retry_budget_arg $ flap_k_arg $ flap_window_arg $ quarantine_arg)

(* The validated Engine.Config the shared flags describe. Exits with a
   flag-level diagnostic on a bad combination — the smart constructor is
   the single validation point. *)
let engine_config ~mode (o : engine_opts) c =
  let module Engine = Rsin_engine.Engine in
  let faults =
    if o.eo_faults then
      Some
        { Engine.Config.mtbf = o.eo_mtbf; mttr = o.eo_mttr;
          granularity = o.eo_granularity }
    else None
  in
  let discipline =
    match o.eo_discipline with
    | `Uniform -> Engine.Uniform
    | `Priority -> Engine.Priority
  in
  let guard =
    if not o.eo_guard then None
    else
      (* The jitter stream is seeded from the workload seed, so guarded
         runs are as reproducible as everything else under --seed. *)
      match
        Guard_policy.make ~queue_bound:o.eo_queue_bound
          ~shed_policy:o.eo_shed ~retry_budget:o.eo_retry_budget
          ~seed:c.seed ~flap_k:o.eo_flap_k ~flap_window:o.eo_flap_window
          ~quarantine_slots:o.eo_quarantine ()
      with
      | Ok g -> Some g
      | Error msg ->
        Printf.eprintf "rsin: %s\n" msg;
        exit 1
  in
  (* The heartbeat is the caller's own hook (heartbeat_hooks), not
     engine configuration. *)
  if o.eo_heartbeat < 0 then begin
    Printf.eprintf "rsin: --heartbeat must be >= 0\n";
    exit 1
  end;
  match
    Engine.Config.make ~mode ~discipline ~solver:c.solver
      ~transmission_time:o.eo_trans ~batch_threshold:o.eo_threshold
      ~max_defer:o.eo_defer ~faults ~guard ()
  with
  | Ok cfg -> cfg
  | Error msg ->
    Printf.eprintf "rsin: %s\n" msg;
    exit 1

(* Synthesize (or read) the workload the shared flags describe. *)
let engine_trace ?trace_file (o : engine_opts) net c =
  if o.eo_levels < 0 then begin
    Printf.eprintf "rsin: --priority-levels must be >= 0\n";
    exit 1
  end;
  match trace_file with
  | Some file ->
    let fail msg =
      Printf.eprintf "rsin: cannot read trace: %s\n" msg;
      exit 1
    in
    let trace =
      try Workload.read_trace file with Sys_error msg | Failure msg -> fail msg
    in
    (* Refuse what the engine would, before any of it is served. *)
    List.iter
      (fun ev ->
        Option.iter
          (fun m -> fail (Printf.sprintf "slot %d: %s" (Workload.event_time ev) m))
          (Rsin_engine.Engine.event_error net ev))
      trace;
    trace
  | None ->
    Workload.synthesize ~mean_service:o.eo_service
      ?deadline_slack:o.eo_slack ~cancel_prob:o.eo_cancel
      ~priority_levels:o.eo_levels (Prng.create c.seed) net ~slots:o.eo_slots
      ~arrival_prob:o.eo_arrival

(* Weave the config's fault plan into the trace as Fault/Repair events
   (a no-op when the plan is absent). *)
let engine_inject_faults cfg net trace c =
  let module Engine = Rsin_engine.Engine in
  match cfg.Engine.Config.faults with
  | None -> trace
  | Some { Engine.Config.mtbf; mttr; granularity } ->
    let horizon =
      List.fold_left (fun acc e -> max acc (Workload.event_time e)) 0 trace
    in
    (* A sub-stream of the workload seed, so the same --seed gives the
       same arrivals with and without --faults. *)
    let frng = Prng.split (Prng.create c.seed) in
    let fevents =
      match granularity with
      | `Slot -> Workload.fault_events (Fault.inject frng net ~horizon ~mtbf ~mttr)
      | `Clock ->
        (* Same element schedule as `Slot for the same seed; each
           event just gains a uniform intra-cycle status-bus clock. *)
        Workload.fault_events_clocked
          (Fault.inject_clocked frng net ~horizon ~mtbf ~mttr ~clock_range:48)
    in
    Printf.printf "faults: %d element event(s) injected (mtbf %g, mttr %g)\n"
      (List.length fevents) mtbf mttr;
    List.stable_sort
      (fun a b -> compare (Workload.event_time a) (Workload.event_time b))
      (trace @ fevents)

(* The hooks of a [--heartbeat] period: the per-slot event pulse
   combined with running cycle tallies (the engine publishes its
   counters only at the end of the run). *)
let heartbeat_hooks ~label heartbeat =
  let module Engine = Rsin_engine.Engine in
  (* Atomic: serve's shards cycle on several domains at once. *)
  let cycles = Atomic.make 0 and alloc = Atomic.make 0 and work = Atomic.make 0 in
  let pulses = ref 0 in
  if heartbeat = 0 then (None, None)
  else
    ( Some
        (fun _net (info : Engine.cycle_info) ->
          Atomic.incr cycles;
          ignore (Atomic.fetch_and_add alloc info.Engine.allocated);
          ignore (Atomic.fetch_and_add work info.Engine.work)),
      Some
        (fun ~events ~time ->
          if events / heartbeat > !pulses then begin
            pulses := events / heartbeat;
            Printf.eprintf
              "heartbeat[%s]: slot=%d events=%d cycles=%d allocated=%d \
               work=%d\n%!"
              label time events (Atomic.get cycles) (Atomic.get alloc)
              (Atomic.get work)
          end) )

(* --- replay ------------------------------------------------------------------- *)

let replay_cmd =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Replay the JSONL workload trace in $(docv) instead of \
                synthesizing one.")
  in
  let export_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"FILE"
          ~doc:"Write the served workload trace to $(docv) as JSONL (replay \
                it later with --trace).")
  in
  let mode_arg =
    let mode_conv =
      Arg.enum
        [ ("warm", `Warm); ("rebuild", `Rebuild); ("token", `Token);
          ("both", `Both); ("packet", `Packet) ]
    in
    Arg.(
      value & opt mode_conv `Both
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Scheduling strategy: $(b,warm) (persistent incremental flow \
                graph), $(b,rebuild) (from-scratch max-flow each cycle), \
                $(b,token) (every cycle runs on the distributed token \
                architecture; solver work counts status-bus clock periods, \
                and clocked trace faults strike mid-cycle), $(b,both) \
                (run warm and rebuild and compare solver work) or \
                $(b,packet) (serve the trace packet-switched on the \
                buffered VOQ fabric: tasks bind to a random free resource \
                before injection and the resource idles until the last \
                flit arrives — the Section II alternative the circuit \
                modes are measured against).")
  in
  let run net trace_file export mode (o : engine_opts) arbiter vq_depth flits
      c =
    let module Engine = Rsin_engine.Engine in
    if mode = `Packet then check_packet_args ~vq_depth ~flits;
    (* Mode `Both compares warm and rebuild, so the config is built per
       engine run; the Warm instance carries the shared fields the
       pre-run steps (fault injection) read. *)
    let config_for m = engine_config ~mode:m o c in
    let base_cfg =
      config_for
        (match mode with
        | `Rebuild -> Engine.Rebuild
        | `Token -> Engine.Token
        | `Warm | `Both | `Packet -> Engine.Warm)
    in
    let trace = engine_trace ?trace_file o net c in
    let trace = engine_inject_faults base_cfg net trace c in
    let has_faults =
      List.exists
        (function Workload.Fault _ | Workload.Repair _ -> true | _ -> false)
        trace
    in
    let discipline = base_cfg.Engine.Config.discipline in
    (match export with
    | Some file ->
      (try Workload.write_trace file trace
       with Sys_error msg ->
         Printf.eprintf "rsin: cannot write trace: %s\n" msg;
         exit 1);
      Printf.printf "exported %d event(s) -> %s\n" (List.length trace) file
    | None -> ());
    with_obs c.trace_out c.trace_format @@ fun obs ->
    if mode = `Packet then begin
      let module Preplay = Rsin_packet.Replay in
      let tasks =
        List.filter_map
          (function
            | Workload.Arrive { t; proc; service; _ } ->
              Some { Preplay.arrival = t; proc; service; flits }
            | Workload.Cancel _ | Workload.Fault _ | Workload.Repair _ -> None)
          trace
      in
      let cancels =
        List.length
          (List.filter (function Workload.Cancel _ -> true | _ -> false) trace)
      in
      if cancels > 0 then
        Printf.printf
          "note: %d cancel event(s) ignored (a bound packet task cannot be \
           withdrawn)\n"
          cancels;
      let fault_schedule =
        List.filter_map
          (function
            | Workload.Fault { t; element; _ } -> Some (t, Fault.down_of element)
            | Workload.Repair { t; element; _ } -> Some (t, Fault.up_of element)
            | Workload.Arrive _ | Workload.Cancel _ -> None)
          trace
      in
      let r =
        Preplay.run ?obs ?vq_depth ~faults:fault_schedule
          ~arbiter:(Rsin_packet.Arbiter.get arbiter)
          (Prng.create c.seed) net tasks
      in
      Printf.printf "packet fabric: arbiter=%s vq-depth=%s flits=%d\n" arbiter
        (match vq_depth with Some k -> string_of_int k | None -> "unbounded")
        flits;
      Table.print
        ~header:[ "metric"; "packet" ]
        ([ ("horizon (slots)", string_of_int r.Preplay.horizon);
           ("arrivals", string_of_int r.Preplay.arrivals);
           ("bound", string_of_int r.Preplay.bound);
           ("completed", string_of_int r.Preplay.completed);
           ("dropped", string_of_int r.Preplay.dropped);
           ("left pending", string_of_int r.Preplay.left_pending);
           ("mean response (slots)", Table.ffix 3 r.Preplay.mean_response);
           ("p95 response (slots)", Table.ffix 3 r.Preplay.p95_response);
           ("max response (slots)", string_of_int r.Preplay.max_response);
           ("throughput (tasks/slot)", Table.ffix 3 r.Preplay.throughput);
           ("serving utilization", Table.fpct r.Preplay.serving_utilization);
           ("reserved utilization", Table.fpct r.Preplay.reserved_utilization);
           ("reserved idle", Table.fpct r.Preplay.reserved_idle);
           ("arbiter grants", string_of_int r.Preplay.grants);
           ("arbiter conflicts", string_of_int r.Preplay.conflicts);
           ("flits injected", string_of_int r.Preplay.injected_flits);
           ("flits delivered", string_of_int r.Preplay.delivered_flits);
           ("flits dropped", string_of_int r.Preplay.dropped_flits) ]
         @ (if has_faults then
              [ ("faults applied", string_of_int r.Preplay.faults_applied);
                ("repairs applied", string_of_int r.Preplay.repairs_applied) ]
            else [])
        |> List.map (fun (a, b) -> [ a; b ]))
    end
    else begin
    let go m =
      let cfg = config_for m in
      let cycle_hook, event_hook =
        heartbeat_hooks ~label:(Engine.mode_name m) o.eo_heartbeat
      in
      Engine.run ?obs ~config:cfg ?cycle_hook ?event_hook net trace
    in
    let reports =
      match mode with
      | `Warm -> [ go Engine.Warm ]
      | `Rebuild -> [ go Engine.Rebuild ]
      | `Token -> [ go Engine.Token ]
      | `Both -> [ go Engine.Warm; go Engine.Rebuild ]
      | `Packet -> assert false (* handled above *)
    in
    (* Uniform output is pinned by the PR-2 cram test; only the new
       discipline announces itself. *)
    if discipline <> Engine.Uniform then
      Printf.printf "discipline: %s\n" (Engine.discipline_name discipline);
    let fcell f r = Table.ffix 3 (f r) in
    let icell f r = string_of_int (f r) in
    Table.print
      ~header:("metric" :: List.map (fun r -> Engine.mode_name r.Engine.mode) reports)
      (List.map
         (fun (name, cell) -> name :: List.map cell reports)
         ([ ("horizon (slots)", icell (fun r -> r.Engine.horizon));
            ("arrivals", icell (fun r -> r.Engine.arrivals));
            ("allocated", icell (fun r -> r.Engine.allocated));
            ("completed", icell (fun r -> r.Engine.completed));
            ("cancelled", icell (fun r -> r.Engine.cancelled));
            ("expired", icell (fun r -> r.Engine.expired));
            ("left pending", icell (fun r -> r.Engine.left_pending));
            ("mean wait (slots)", fcell (fun r -> r.Engine.mean_wait));
            ("max wait (slots)", icell (fun r -> r.Engine.max_wait));
            ("throughput (tasks/slot)", fcell (fun r -> r.Engine.throughput));
            ("resource utilization", (fun r -> Table.fpct r.Engine.utilization));
            ("scheduling cycles", icell (fun r -> r.Engine.cycles));
            ("cycles skipped clean", icell (fun r -> r.Engine.skipped_cycles));
            ("solver work (arcs)", icell (fun r -> r.Engine.solver_work)) ]
         (* Fault-free traces keep the PR-2 pinned table byte-for-byte;
            these rows appear only when the trace carries fault events. *)
         @
         if has_faults then
           [ ("faults applied", icell (fun r -> r.Engine.faults));
             ("repairs applied", icell (fun r -> r.Engine.repairs));
             ("victim circuits", icell (fun r -> r.Engine.victims));
             ("mean re-admission wait", fcell (fun r -> r.Engine.mean_readmission)) ]
         else []));
    (match reports with
    | [ w; rb ] when rb.Engine.solver_work > 0 ->
      Printf.printf "warm start saves %s of rebuild solver work\n"
        (Table.fpct
           (1. -. float_of_int w.Engine.solver_work
                  /. float_of_int rb.Engine.solver_work))
    | _ -> ())
    end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Serve a recorded or synthetic workload trace through the online \
             allocation engine")
    Term.(
      const run $ net_arg $ trace_arg $ export_arg $ mode_arg
      $ engine_opts_term $ arbiter_arg $ vq_depth_arg $ flits_arg ~default:4
      $ common_term)

(* --- serve -------------------------------------------------------------------- *)

(* Stream one connection's JSONL off a Unix domain socket. The socket
   file is created fresh and removed on exit; a single connection is
   accepted and served to completion, which keeps the subcommand
   scriptable (pipe a trace in, read the report out). *)
let with_unix_socket path k =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 1;
      Printf.eprintf "listening on %s\n%!" path;
      let conn, _ = Unix.accept sock in
      let ic = Unix.in_channel_of_descr conn in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> k ic))

let serve_cmd =
  let module Engine = Rsin_engine.Engine in
  let module Serve = Rsin_engine.Serve in
  let module Shard = Rsin_engine.Shard in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Stream the JSONL workload trace in $(docv) line at a time \
                (replay traces double as load-test drivers).")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"PATH"
          ~doc:"Create a Unix domain socket at $(docv), accept one \
                connection and stream JSONL trace events from it until the \
                client closes.")
  in
  let synthetic_arg =
    Arg.(
      value & flag
      & info [ "synthetic" ]
          ~doc:"Synthesize the workload from the shared workload flags \
                (--slots, --arrival, ...) instead of streaming one — the \
                scaling-bench driver.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Size of the domain pool serving the shards (default: the \
                machine's recommended domain count). The shard layout — and \
                with it the allocation trajectory — does not depend on it.")
  in
  let timing_arg =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:"Also report wall-clock time and events/second (off by \
                default so serve output stays reproducible).")
  in
  let checkpoint_every_arg =
    Arg.(
      value
      & opt (some pos_int_conv) None
      & info [ "checkpoint-every" ] ~docv:"SLOTS"
          ~doc:"Write a checkpoint (atomically, via a temp file and rename) \
                every $(docv) served slots; must be > 0. A checkpoint lands \
                on a slot boundary and captures the full serving state — \
                restarting from it with $(b,--restore) reproduces the \
                uninterrupted run exactly.")
  in
  let checkpoint_file_arg =
    Arg.(
      value
      & opt string "rsin.ckpt"
      & info [ "checkpoint-file" ] ~docv:"FILE"
          ~doc:"Where $(b,--checkpoint-every) writes (default rsin.ckpt).")
  in
  let restore_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "restore" ] ~docv:"FILE"
          ~doc:"Resume serving from the checkpoint in $(docv) instead of \
                starting fresh; the engine config travels inside the \
                checkpoint, and NET must be the topology it was taken on. \
                Feed the remaining trace (slots after the checkpoint).")
  in
  let run net domains trace_file listen synthetic timing checkpoint_every
      checkpoint_file restore_file (o : engine_opts) c =
    let cfg = engine_config ~mode:Engine.Warm o c in
    if Option.is_some trace_file && Option.is_some listen then begin
      Printf.eprintf "rsin: --trace and --listen are mutually exclusive\n";
      exit 1
    end;
    if synthetic && (Option.is_some trace_file || Option.is_some listen) then begin
      Printf.eprintf "rsin: --synthetic replaces --trace/--listen\n";
      exit 1
    end;
    if cfg.Engine.Config.faults <> None && not synthetic then begin
      Printf.eprintf
        "rsin: --faults needs --synthetic (streamed traces carry their \
         fault events inline)\n";
      exit 1
    end;
    let cycle_hook, event_hook =
      heartbeat_hooks ~label:"serve" o.eo_heartbeat
    in
    let cycle_hook =
      (* The shards cycle on the pool's domains, concurrently with each
         other and, once a sealed slot's advance is in flight, with the
         routing domain between feeds; the tallies are atomic for that.
         The event hook reads them on the routing domain after that
         advance is joined and before the next one starts, so each
         heartbeat counts every cycle through the slot before the one
         just routed. *)
      Option.map (fun h -> fun ~shard:_ snapshot info -> h snapshot info) cycle_hook
    in
    (* Periodic checkpoints piggyback on the per-slot event hook: the
       buffered slot is already flushed there, so Serve.snapshot is safe
       and lands on a slot boundary. Written atomically (temp + rename)
       so a crash mid-write never corrupts the previous checkpoint. *)
    let instance = ref None in
    let write_checkpoint t =
      let doc = Json.to_string (Serve.snapshot t) in
      let tmp = checkpoint_file ^ ".tmp" in
      Out_channel.with_open_text tmp (fun oc ->
          Out_channel.output_string oc doc;
          Out_channel.output_char oc '\n');
      Sys.rename tmp checkpoint_file
    in
    let event_hook =
      match checkpoint_every with
      | None -> event_hook
      | Some period ->
        let written = ref 0 in
        Some
          (fun ~events ~time ->
            (match event_hook with
             | Some h -> h ~events ~time
             | None -> ());
            if time >= 0 && time / period > !written then begin
              written := time / period;
              match !instance with
              | Some t ->
                write_checkpoint t;
                Printf.eprintf "checkpoint: slot %d -> %s\n%!" time
                  checkpoint_file
              | None -> ()
            end)
    in
    let t =
      match restore_file with
      | None ->
        (match Serve.create ~config:cfg ?domains ?cycle_hook ?event_hook net with
         | Ok t -> t
         | Error msg ->
           Printf.eprintf "rsin: %s\n" msg;
           exit 1)
      | Some file ->
        let doc =
          try In_channel.with_open_text file In_channel.input_all
          with Sys_error msg ->
            Printf.eprintf "rsin: cannot read checkpoint: %s\n" msg;
            exit 1
        in
        (match Json.parse doc with
         | Error msg ->
           Printf.eprintf "rsin: cannot read checkpoint %s: %s\n" file msg;
           exit 1
         | Ok j ->
           (match Serve.restore ?domains ?cycle_hook ?event_hook net j with
            | Ok t ->
              Printf.eprintf "restored from %s\n%!" file;
              t
            | Error msg ->
              Printf.eprintf "rsin: cannot restore %s: %s\n" file msg;
              exit 1))
    in
    instance := Some t;
    Printf.printf "serving %s: %d shard(s) over %d domain(s)\n"
      (Network.name net)
      (Shard.n_shards (Serve.shard t))
      (Serve.n_domains t);
    (* Robustness contract: hostile input never takes the server down.
       A malformed line or an event the router rejects (out-of-range
       processor, decreasing slot, duplicate id) is reported with its
       position and dropped; serving continues. *)
    let stream_errors = ref 0 in
    let feed ev =
      try Serve.feed t ev
      with Invalid_argument msg ->
        incr stream_errors;
        Printf.eprintf "rsin: event dropped: %s\n%!" msg
    in
    let feed_channel ic =
      Workload.fold_trace_channel_lenient ic
        ~on_error:(fun { Workload.line; message } ->
          incr stream_errors;
          Printf.eprintf "rsin: trace line %d: %s (line dropped)\n%!" line
            message)
        ~init:() ~f:(fun () ev -> feed ev)
    in
    (if synthetic then begin
       let trace = engine_trace o net c in
       let trace = engine_inject_faults cfg net trace c in
       List.iter feed (Workload.sort_trace trace)
     end
     else
       match (trace_file, listen) with
       | Some file, None ->
         (try In_channel.with_open_text file feed_channel
          with Sys_error msg ->
            Printf.eprintf "rsin: cannot read trace: %s\n" msg;
            exit 1)
       | None, Some path -> with_unix_socket path feed_channel
       | None, None | Some _, Some _ -> feed_channel stdin);
    Serve.drain t;
    let r = Serve.report t in
    Table.print
      ~header:[ "metric"; "serve" ]
      ([ ("events", string_of_int r.Serve.events);
         ("borrowed", string_of_int r.Serve.borrows);
         ("starved", string_of_int r.Serve.starved);
         ("horizon (slots)", string_of_int r.Serve.horizon);
         ("arrivals", string_of_int r.Serve.arrivals);
         ("allocated", string_of_int r.Serve.allocated);
         ("completed", string_of_int r.Serve.completed);
         ("cancelled", string_of_int r.Serve.cancelled);
         ("expired", string_of_int r.Serve.expired);
         ("left pending", string_of_int r.Serve.left_pending);
         ("scheduling cycles", string_of_int r.Serve.cycles);
         ("cycles skipped clean", string_of_int r.Serve.skipped_cycles);
         ("solver work (arcs)", string_of_int r.Serve.solver_work) ]
       @ (if r.Serve.faults + r.Serve.repairs > 0 then
            [ ("faults applied", string_of_int r.Serve.faults);
              ("repairs applied", string_of_int r.Serve.repairs);
              ("victim circuits", string_of_int r.Serve.victims) ]
          else [])
       @ (if o.eo_guard || restore_file <> None then
            [ ("shed (admission)", string_of_int r.Serve.shed);
              ("given up (budget)", string_of_int r.Serve.given_up);
              ("backoff retries", string_of_int r.Serve.retries);
              ("quarantines", string_of_int r.Serve.quarantines) ]
          else [])
       @ (if !stream_errors > 0 then
            [ ("stream errors dropped", string_of_int !stream_errors) ]
          else [])
       |> List.map (fun (a, b) -> [ a; b ]));
    if timing then
      Printf.printf "wall %.1f ms, %.0f events/s\n"
        (r.Serve.wall_us /. 1000.)
        (Serve.events_per_sec r)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a live JSONL event stream (stdin, file or Unix socket) \
             through the sharded multicore engine: one warm engine per \
             network component, spread over an OCaml domain pool, with \
             cross-shard borrowing when a shard's resource pool is \
             exhausted. Malformed lines and rejected events are dropped \
             with a positioned error instead of taking the server down; \
             $(b,--guard) adds overload and fault hardening, and \
             $(b,--checkpoint-every)/$(b,--restore) give crash recovery.")
    Term.(
      const run $ net_arg $ domains_arg $ trace_arg $ listen_arg
      $ synthetic_arg $ timing_arg $ checkpoint_every_arg
      $ checkpoint_file_arg $ restore_arg $ engine_opts_term $ common_term)

(* --- metrics ------------------------------------------------------------------ *)

let metrics_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the registry as one JSON object (alias for \
                $(b,--format json)).")
  in
  let format_arg =
    let fmt_conv =
      Arg.enum [ ("table", `Table); ("json", `Json); ("prom", `Prom) ]
    in
    Arg.(
      value & opt fmt_conv `Table
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: $(b,table) (human-readable), $(b,json) (one \
                JSON object) or $(b,prom) (Prometheus 0.0.4 text \
                exposition, histograms as summaries with p50/p95/p99 \
                quantile labels).")
  in
  let run net requests free pre json format c =
    let rng = Prng.create c.seed in
    if pre > 0 then ignore (Workload.preoccupy rng net ~circuits:pre);
    let requests, free = snapshot rng net requests free in
    let obs =
      match c.trace_out with None -> Obs.create () | Some _ -> Obs.recording ()
    in
    let opt = schedule_t1 ~obs c net ~requests ~free in
    let dist = Token_sim.run ~obs net ~requests ~free in
    let format = if json then `Json else format in
    (match format with
    | `Json -> print_endline (Metrics.to_json obs.Obs.metrics)
    | `Prom -> print_string (Metrics.to_prometheus obs.Obs.metrics)
    | `Table ->
      Printf.printf "requests: %s\nfree:     %s\n"
        (String.concat "," (List.map string_of_int requests))
        (String.concat "," (List.map string_of_int free));
      Printf.printf
        "optimal allocated %d/%d; distributed allocated %d/%d in %d clock \
         periods\n"
        opt.Rsin_core.Transform1.allocated (List.length requests)
        dist.Token_sim.allocated dist.Token_sim.requested
        dist.Token_sim.total_clocks;
      Table.print
        ~header:[ "metric"; "kind"; "value" ]
        (Metrics.to_rows obs.Obs.metrics));
    match c.trace_out with
    | Some file ->
      (try Trace.write_file obs.Obs.trace ~format:c.trace_format file
       with Sys_error msg ->
         Printf.eprintf "rsin: cannot write trace: %s\n" msg;
         exit 1);
      Printf.printf "trace: %d event(s) -> %s\n"
        (Trace.event_count obs.Obs.trace) file
    | None -> ()
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Schedule a snapshot with both the centralized and the \
             distributed scheduler and print the metrics registry")
    Term.(
      const run $ net_arg $ requests_arg $ free_arg $ pre_arg $ json_arg
      $ format_arg $ common_term)

(* --- perf --------------------------------------------------------------------- *)

(* The regression gate over the structured bench reports: compares fresh
   BENCH_*.json files (written by `dune exec bench/main.exe`) against
   the committed baselines and fails --check runs on any metric that
   regressed beyond its kind's tolerance. *)

let perf_status_name = function
  | Bench_report.Same -> "same"
  | Bench_report.Regression -> "REGRESSION"
  | Bench_report.Improvement -> "improvement"
  | Bench_report.Only_baseline -> "only in baseline"
  | Bench_report.Only_fresh -> "only in fresh run"

let perf_self_test ~time_tolerance ~count_tolerance =
  (* An artificial 3x slowdown (and a count drift beyond 1%) must be
     flagged, and so must a 2% loss of a yield (a count where more is
     better), while a yield that triples is no regression; an identical
     re-run must diff clean; and the report must survive a JSON
     round-trip. *)
  let env = [ ("ocaml", Sys.ocaml_version) ] in
  let mk factor yield_factor =
    let r = Bench_report.create ~env "selftest" in
    let case = Bench_report.case r "case" in
    Bench_report.record_samples case ~name:"wall_us" ~kind:Bench_report.Time
      ~unit_:"us"
      (Array.init 20 (fun i -> (100. +. float_of_int i) *. factor));
    Bench_report.record_count case ~name:"solver_work" ~unit_:"arcs"
      (1000. *. factor);
    Bench_report.record_yield case ~name:"allocated" ~unit_:"circuits"
      (1000. *. yield_factor);
    r
  in
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "  %-46s %s\n" what (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  let baseline = mk 1.0 1.0 in
  let regressed fresh =
    List.map
      (fun d -> d.Bench_report.d_metric)
      (Bench_report.regressions
         (Bench_report.diff ~time_tolerance ~count_tolerance ~baseline fresh))
  in
  expect "identical run diffs clean" (regressed (mk 1.0 1.0) = []);
  let slow = regressed (mk 3.0 3.0) in
  expect "3x slowdown flags wall_us" (List.mem "wall_us" slow);
  expect "3x count drift flags solver_work" (List.mem "solver_work" slow);
  expect "3x yield gain is no regression" (not (List.mem "allocated" slow));
  expect "2% yield loss flags allocated"
    (List.mem "allocated" (regressed (mk 1.0 0.98)));
  let tmp = Filename.temp_file "rsin_perf" "" in
  Sys.remove tmp;
  let dir = tmp in
  Unix.mkdir dir 0o755;
  let path = Bench_report.write ~dir baseline in
  let round =
    match Bench_report.read_file path with
    | Ok r -> Bench_report.equal r baseline
    | Error _ -> false
  in
  Sys.remove path;
  Unix.rmdir dir;
  expect "JSON round-trip preserves the report" round;
  if !failures = 0 then begin
    print_endline "perf self-test passed";
    0
  end
  else begin
    Printf.printf "perf self-test: %d failure(s)\n" !failures;
    1
  end

let perf_cmd =
  let baseline_dir_arg =
    Arg.(
      value
      & opt string "bench/baselines"
      & info [ "baseline-dir" ] ~docv:"DIR"
          ~doc:"Directory holding the committed baseline BENCH_*.json files.")
  in
  let fresh_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fresh-dir" ] ~docv:"DIR"
          ~doc:"Directory holding the freshly generated BENCH_*.json files \
                (default: \\$RSIN_BENCH_DIR or the current directory).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Exit non-zero when any metric regressed beyond its \
                tolerance (the CI gate).")
  in
  let self_test_arg =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:"Run the comparator against synthetic reports (an injected \
                3x slowdown must be detected) instead of reading files.")
  in
  let time_tol_arg =
    Arg.(
      value & opt float 2.0
      & info [ "time-tolerance" ] ~docv:"X"
          ~doc:"A time or allocation metric regresses when fresh > $(docv) \
                * baseline (mean). Wide by default: CI machines vary.")
  in
  let count_tol_arg =
    Arg.(
      value & opt float 1.01
      & info [ "count-tolerance" ] ~docv:"X"
          ~doc:"A deterministic count metric (solver work records, clock \
                periods) regresses when fresh > $(docv) * baseline, and a \
                yield (allocations, completions) when fresh < baseline / \
                $(docv).")
  in
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"BENCH"
          ~doc:"Bench names to compare (default: every BENCH_*.json present \
                in the fresh directory).")
  in
  let bench_files dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then []
    else
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 11
             && String.sub f 0 6 = "BENCH_"
             && Filename.check_suffix f ".json")
      |> List.sort compare
  in
  let bench_name_of_file f = Filename.chop_suffix (String.sub f 6 (String.length f - 6)) ".json" in
  let run baseline_dir fresh_dir check self_test time_tolerance
      count_tolerance names =
    if self_test then exit (perf_self_test ~time_tolerance ~count_tolerance);
    let fresh_dir =
      match fresh_dir with
      | Some d -> d
      | None -> Option.value (Sys.getenv_opt "RSIN_BENCH_DIR") ~default:"."
    in
    let files = bench_files fresh_dir in
    let files =
      if names = [] then files
      else begin
        List.iter
          (fun n ->
            if not (List.mem (Printf.sprintf "BENCH_%s.json" n) files) then begin
              Printf.eprintf "rsin: no BENCH_%s.json in %s\n" n fresh_dir;
              exit 1
            end)
          names;
        List.filter (fun f -> List.mem (bench_name_of_file f) names) files
      end
    in
    if files = [] then begin
      Printf.eprintf
        "rsin: no BENCH_*.json files in %s (run the benches first)\n" fresh_dir;
      exit 1
    end;
    let total_reg = ref 0 and total_imp = ref 0 and total_same = ref 0 in
    let skipped = ref 0 in
    List.iter
      (fun file ->
        let name = bench_name_of_file file in
        let bpath = Filename.concat baseline_dir file in
        if not (Sys.file_exists bpath) then begin
          Printf.printf "%-16s no baseline (new bench? commit %s)\n" name bpath;
          incr skipped
        end
        else
          let read what path =
            match Bench_report.read_file path with
            | Ok r -> r
            | Error msg ->
              Printf.eprintf "rsin: cannot read %s %s: %s\n" what path msg;
              exit 1
          in
          let baseline = read "baseline" bpath in
          let fresh = read "fresh report" (Filename.concat fresh_dir file) in
          let deltas =
            try
              Bench_report.diff ~time_tolerance ~count_tolerance ~baseline
                fresh
            with Invalid_argument msg ->
              Printf.eprintf "rsin: %s\n" msg;
              exit 1
          in
          let by_status s =
            List.filter (fun d -> d.Bench_report.d_status = s) deltas
          in
          let regs = by_status Bench_report.Regression in
          let imps = by_status Bench_report.Improvement in
          let sames = by_status Bench_report.Same in
          total_reg := !total_reg + List.length regs;
          total_imp := !total_imp + List.length imps;
          total_same := !total_same + List.length sames;
          Printf.printf "%-16s %d metric(s): %d same, %d improved, %d regressed\n"
            name (List.length deltas) (List.length sames) (List.length imps)
            (List.length regs);
          List.iter
            (fun d ->
              Printf.printf "  %-12s %s / %s: %.4g -> %.4g (%.2fx)\n"
                (perf_status_name d.Bench_report.d_status)
                d.Bench_report.d_case d.Bench_report.d_metric
                d.Bench_report.base d.Bench_report.fresh d.Bench_report.ratio)
            (regs @ imps))
      files;
    Printf.printf
      "total: %d same, %d improved, %d regressed%s\n"
      !total_same !total_imp !total_reg
      (if !skipped > 0 then Printf.sprintf ", %d without baseline" !skipped
       else "");
    if check && !total_reg > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:"Compare fresh BENCH_*.json bench reports against committed \
             baselines and flag metric regressions")
    Term.(
      const run $ baseline_dir_arg $ fresh_dir_arg $ check_arg $ self_test_arg
      $ time_tol_arg $ count_tol_arg $ names_arg)

(* --- props ------------------------------------------------------------------- *)

let props_cmd =
  let run net =
    Format.printf "%a@." Network.pp_summary net;
    let module P = Rsin_topology.Properties in
    Table.print
      ~header:[ "metric"; "value" ]
      [
        [ "path length (links)"; string_of_int (P.path_length net) ];
        [ "paths per pair (mean)"; Table.ffix 2 (P.path_diversity net) ];
        [ "paths per pair (min)"; string_of_int (P.min_path_diversity net) ];
        [ "bisection flow"; string_of_int (P.bisection_flow net) ];
      ]
  in
  Cmd.v
    (Cmd.info "props" ~doc:"Structural metrics of a network")
    Term.(const run $ net_arg)

(* --- perm -------------------------------------------------------------------- *)

let perm_cmd =
  let perm_arg =
    Arg.(
      value
      & opt (some int_list_conv) None
      & info [ "perm" ] ~docv:"R,R,..."
          ~doc:"Target resource for each processor in order (default: a \
                random permutation).")
  in
  let run n perm seed =
    let net = Rsin_topology.Builders.benes n in
    let perm =
      match perm with
      | Some l ->
        if List.length l <> n then failwith "permutation length must equal N";
        Array.of_list l
      | None ->
        let a = Array.init n Fun.id in
        Prng.shuffle (Prng.create seed) a;
        a
    in
    let circuits = Rsin_topology.Permutation.route net perm in
    List.iteri
      (fun p links ->
        ignore (Network.establish net links);
        Printf.printf "p%-3d -> r%-3d via %d links\n" p perm.(p)
          (List.length links))
      circuits;
    Printf.printf "all %d circuits established link-disjointly on %s\n" n
      (Network.name net)
  in
  let n_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"N" ~doc:"Port count (power of two); a Benes network \
                                of that size is generated.")
  in
  Cmd.v
    (Cmd.info "perm"
       ~doc:"Route a full permutation on a Benes network (looping algorithm)")
    Term.(const run $ n_arg $ perm_arg $ seed_arg)

(* --- gates -------------------------------------------------------------------- *)

let gates_cmd =
  let run net requests free pre c =
    let rng = Prng.create c.seed in
    with_obs c.trace_out c.trace_format @@ fun _obs ->
    if pre > 0 then ignore (Workload.preoccupy rng net ~circuits:pre);
    let c = Rsin_gates.Mrsin_circuit.compile net in
    let st = Rsin_gates.Mrsin_circuit.stats c in
    Printf.printf
      "compiled netlist: %d inputs, %d flip-flops, %d gates, depth %d\n"
      st.Rsin_gates.Netlist.inputs st.Rsin_gates.Netlist.flip_flops
      st.Rsin_gates.Netlist.gates st.Rsin_gates.Netlist.depth;
    let requests, free = snapshot rng net requests free in
    let o = Rsin_gates.Mrsin_circuit.run c ~requests ~free in
    Printf.printf "allocated %d/%d in %d clocks:\n"
      o.Rsin_gates.Mrsin_circuit.allocated o.Rsin_gates.Mrsin_circuit.requested
      o.Rsin_gates.Mrsin_circuit.clocks;
    List.iter
      (fun (p, r) -> Printf.printf "  p%d -> r%d\n" p r)
      o.Rsin_gates.Mrsin_circuit.mapping
  in
  Cmd.v
    (Cmd.info "gates"
       ~doc:"Compile the network to a gate-level scheduler and run a snapshot")
    Term.(const run $ net_arg $ requests_arg $ free_arg $ pre_arg $ common_term)

(* --- saturate ---------------------------------------------------------------- *)

let saturate_cmd =
  let loads_arg =
    let loads_conv =
      Arg.conv
        ( (fun s ->
            let parts = String.split_on_char ',' (String.trim s) in
            let parsed = List.filter_map float_of_string_opt parts in
            if List.length parsed = List.length parts && parts <> [] then
              Ok parsed
            else Error (`Msg "expected a comma-separated list of loads")),
          fun fmt l ->
            Format.fprintf fmt "%s"
              (String.concat "," (List.map string_of_float l)) )
    in
    Arg.(
      value
      & opt loads_conv [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]
      & info [ "loads" ] ~docv:"L,L,..."
          ~doc:"Offered loads to sweep (task arrival probability per \
                processor per slot, each in [0,1]; each task carries \
                $(b,--flits) flits).")
  in
  let slots_arg =
    Arg.(
      value & opt int 2000
      & info [ "slots" ] ~doc:"Measured slots per load point.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the curve as a JSON document to $(docv).")
  in
  let run net arbiter vq_depth flits loads slots json c =
    if slots < 1 then begin
      Printf.eprintf "rsin: --slots must be >= 1\n";
      exit 1
    end;
    if List.exists (fun l -> l < 0. || l > 1.) loads then begin
      Printf.eprintf "rsin: every load must be in [0, 1]\n";
      exit 1
    end;
    check_packet_args ~vq_depth ~flits;
    with_obs c.trace_out c.trace_format @@ fun obs ->
    let module Sweep = Rsin_packet.Sweep in
    let points =
      Sweep.saturation ?obs ?vq_depth ~flits
        ~arbiter:(Rsin_packet.Arbiter.get arbiter)
        (Prng.create c.seed) net ~slots ~loads
    in
    Printf.printf "saturation: net=%s arbiter=%s vq-depth=%s flits=%d slots=%d\n"
      (Network.name net) arbiter
      (match vq_depth with Some k -> string_of_int k | None -> "unbounded")
      flits slots;
    Table.print ~align:Sweep.point_align ~header:Sweep.point_header
      (List.map Sweep.point_row points);
    match json with
    | None -> ()
    | Some file ->
      let doc =
        Sweep.to_json
          ~meta:
            [ ("net", Rsin_util.Json.Str (Network.name net));
              ("arbiter", Rsin_util.Json.Str arbiter);
              ( "vq_depth",
                match vq_depth with
                | Some k -> Rsin_util.Json.Num (float_of_int k)
                | None -> Rsin_util.Json.Null );
              ("flits", Rsin_util.Json.Num (float_of_int flits));
              ("slots", Rsin_util.Json.Num (float_of_int slots));
              ("seed", Rsin_util.Json.Num (float_of_int c.seed)) ]
          points
      in
      (try
         let oc = open_out file in
         output_string oc (Rsin_util.Json.to_string doc);
         output_char oc '\n';
         close_out oc
       with Sys_error msg ->
         Printf.eprintf "rsin: cannot write JSON: %s\n" msg;
         exit 1);
      Printf.printf "json: %d point(s) -> %s\n" (List.length points) file
  in
  Cmd.v
    (Cmd.info "saturate"
       ~doc:"Sweep offered load on the buffered packet fabric and print the \
             saturation (throughput/latency) curve")
    Term.(
      const run $ net_arg $ arbiter_arg $ vq_depth_arg $ flits_arg ~default:1
      $ loads_arg $ slots_arg $ json_arg $ common_term)

(* --- show -------------------------------------------------------------------- *)

let show_cmd =
  let run net pre requests free seed =
    let rng = Prng.create seed in
    if pre > 0 then ignore (Workload.preoccupy rng net ~circuits:pre);
    (match (requests, free) with
    | Some requests, Some free ->
      let o =
        Scheduler.schedule net
          ~requests:(List.map Scheduler.request requests)
          ~resources:(List.map Scheduler.resource free)
      in
      ignore (Scheduler.commit net o)
    | _ -> ());
    Format.printf "%a@?" Network.pp_occupancy net
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Text map of link occupancy, optionally after scheduling a snapshot")
    Term.(const run $ net_arg $ pre_arg $ requests_arg $ free_arg $ seed_arg)

(* --- taskgraph ------------------------------------------------------------------ *)

let taskgraph_cmd =
  let tasks_arg = Arg.(value & opt int 60 & info [ "tasks" ] ~doc:"Task count.") in
  let types_arg = Arg.(value & opt int 3 & info [ "types" ] ~doc:"Resource types.") in
  let run net tasks types c =
    let module Taskgraph = Rsin_sim.Taskgraph in
    let seed = c.seed in
    let rng = Prng.create seed in
    with_obs c.trace_out c.trace_format @@ fun _obs ->
    let g =
      Taskgraph.random rng ~tasks ~types ~procs:(Network.n_procs net)
        ~edge_prob:0.25 ~mean_service:4.
    in
    Printf.printf "graph: %d tasks, critical path %d slots\n" (Taskgraph.size g)
      (Taskgraph.critical_path g);
    let pool = List.init (Network.n_res net) (fun r -> (r, r mod types)) in
    Table.print
      ~header:[ "policy"; "makespan"; "pool util"; "mean ready wait" ]
      (List.map
         (fun (name, policy) ->
           let r = Taskgraph.execute ~policy (Prng.create seed) net ~pool g in
           [ name;
             string_of_int r.Taskgraph.makespan;
             Table.fpct r.Taskgraph.resource_utilization;
             Table.ffix 2 r.Taskgraph.mean_ready_wait ])
         [ ("flow", Taskgraph.Flow_scheduler);
           ("priority flow", Taskgraph.Priority_flow);
           ("naive", Taskgraph.Naive_mapper) ])
  in
  Cmd.v
    (Cmd.info "taskgraph"
       ~doc:"Execute a random dependency DAG over the resource pool")
    Term.(const run $ net_arg $ tasks_arg $ types_arg $ common_term)

(* --- chaos -------------------------------------------------------------------- *)

let chaos_cmd =
  let module Chaos = Rsin_engine.Chaos in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Short soak — 300 storm slots per topology instead of 2500. \
                The CI smoke setting.")
  in
  let slots_arg =
    Arg.(
      value
      & opt (some pos_int_conv) None
      & info [ "slots" ] ~docv:"N"
          ~doc:"Storm slots per topology (overrides the default and \
                $(b,--quick)).")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Also write the JSON chaos report (schema \
                rsin-chaos-report/v1, one entry per topology with its \
                throughput-retained figure) to $(docv); $(b,-) for stdout.")
  in
  let run quick slots report c =
    match Chaos.run ~quick ~seed:c.seed ?slots () with
    | Error msg ->
      Printf.eprintf "rsin: chaos: %s\n" msg;
      exit 1
    | Ok outcomes ->
      List.iter (fun o -> Format.printf "%a@." Chaos.pp_outcome o) outcomes;
      (match report with
       | None -> ()
       | Some "-" -> print_endline (Json.to_string (Chaos.report_json outcomes))
       | Some file ->
         Out_channel.with_open_text file (fun oc ->
             Out_channel.output_string oc
               (Json.to_string (Chaos.report_json outcomes));
             Out_channel.output_char oc '\n');
         Printf.printf "report -> %s\n" file);
      print_endline "chaos soak passed: every accounting check held"
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Chaos soak of the sharded serving engine: seeded fault storms \
             under an overloading guarded workload, a mid-trace kill with \
             checkpoint/restore (the resumed trajectory must be \
             byte-identical), corrupted JSONL streams through the lenient \
             parser, and a clocked-fault token soak — with the arrival \
             accounting invariant asserted after every flushed slot. Exits \
             nonzero on the first violation.")
    Term.(const run $ quick_arg $ slots_arg $ report_arg $ common_term)

let () =
  let doc = "resource sharing interconnection network toolkit" in
  let main =
    Cmd.group
      (Cmd.info "rsin" ~doc ~version:"1.0.0")
      [ info_cmd; dot_cmd; schedule_cmd; trace_cmd; blocking_cmd; simulate_cmd;
        replay_cmd; serve_cmd; saturate_cmd; metrics_cmd; perf_cmd; props_cmd;
        perm_cmd;
        gates_cmd; show_cmd; taskgraph_cmd; chaos_cmd ]
  in
  exit (Cmd.eval main)
