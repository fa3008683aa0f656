module Prng = Rsin_util.Prng
module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Fault = Rsin_fault.Fault

let snapshot ?(req_density = 0.5) ?(res_density = 0.5) rng net =
  let procs = ref [] and ress = ref [] in
  for p = Network.n_procs net - 1 downto 0 do
    if Prng.bernoulli rng req_density then procs := p :: !procs
  done;
  for r = Network.n_res net - 1 downto 0 do
    if Prng.bernoulli rng res_density then ress := r :: !ress
  done;
  (!procs, !ress)

let occupied_endpoints net =
  let procs = ref [] and ress = ref [] in
  List.iter
    (fun (_id, links) ->
      (match links with
      | [] -> ()
      | first :: _ ->
        (match Network.link_src net first with
        | Network.Proc p -> procs := p :: !procs
        | Network.Res _ | Network.Box_in _ | Network.Box_out _ -> ()));
      (match List.rev links with
      | [] -> ()
      | last :: _ ->
        (match Network.link_dst net last with
        | Network.Res r -> ress := r :: !ress
        | Network.Proc _ | Network.Box_in _ | Network.Box_out _ -> ())))
    (Network.circuits net);
  (List.sort_uniq compare !procs, List.sort_uniq compare !ress)

let preoccupy rng net ~circuits =
  let np = Network.n_procs net and nr = Network.n_res net in
  let made = ref 0 and attempts = ref 0 in
  while !made < circuits && !attempts < 20 * circuits do
    incr attempts;
    let p = Prng.int rng np and r = Prng.int rng nr in
    let busy_p, busy_r = occupied_endpoints net in
    if (not (List.mem p busy_p)) && not (List.mem r busy_r) then
      match Builders.route_unique net ~proc:p ~res:r with
      | Some links ->
        ignore (Network.establish net links);
        incr made
      | None -> ()
  done;
  !made

let fail_links rng net ~count =
  let free = Array.of_list (Network.free_links net) in
  let k = min count (Array.length free) in
  let picks = Prng.sample_without_replacement rng k (Array.length free) in
  Array.iter
    (fun i -> ignore (Network.establish_unchecked net [ free.(i) ]))
    picks;
  k

let with_priorities rng ~levels ids =
  if levels < 1 then invalid_arg "Workload.with_priorities";
  List.map (fun id -> (id, 1 + Prng.int rng levels)) ids

let with_types rng ~types ids =
  if types < 1 then invalid_arg "Workload.with_types";
  List.map (fun id -> (id, Prng.int rng types)) ids

(* --- recorded workload traces -------------------------------------------- *)

type trace_event =
  | Arrive of {
      t : int;
      id : int;
      proc : int;
      service : int;
      deadline : int option;
      priority : int;
    }
  | Cancel of { t : int; id : int }
  | Fault of { t : int; clock : int option; element : Fault.element }
  | Repair of { t : int; clock : int option; element : Fault.element }

let event_time = function
  | Arrive { t; _ } | Cancel { t; _ } | Fault { t; _ } | Repair { t; _ } -> t

let event_id = function
  | Arrive { id; _ } | Cancel { id; _ } -> id
  | Fault _ | Repair _ -> -1

let fault_events schedule =
  List.map
    (fun (t, ev) ->
      let element = Fault.element ev in
      if Fault.is_down ev then Fault { t; clock = None; element }
      else Repair { t; clock = None; element })
    schedule

let fault_events_clocked schedule =
  List.map
    (fun (t, clk, ev) ->
      let element = Fault.element ev in
      if Fault.is_down ev then Fault { t; clock = Some clk; element }
      else Repair { t; clock = Some clk; element })
    schedule

let sort_trace trace =
  (* Stable on time so same-slot events keep their recorded order. *)
  List.stable_sort (fun a b -> compare (event_time a) (event_time b)) trace

let synthesize ?(mean_service = 4.0) ?deadline_slack ?(cancel_prob = 0.0)
    ?(priority_levels = 0) rng net ~slots ~arrival_prob =
  if arrival_prob < 0. || arrival_prob > 1. then
    invalid_arg "Workload.synthesize: arrival_prob";
  if mean_service < 1. then invalid_arg "Workload.synthesize: mean_service";
  if cancel_prob < 0. || cancel_prob > 1. then
    invalid_arg "Workload.synthesize: cancel_prob";
  if priority_levels < 0 then
    invalid_arg "Workload.synthesize: priority_levels";
  (match deadline_slack with
  | Some s when s < 1 -> invalid_arg "Workload.synthesize: deadline_slack"
  | _ -> ());
  (* Independent sub-streams: adding draws to one process (e.g. sampling
     more service times) never perturbs the arrival pattern. split_n is
     prefix-stable, so asking for the fifth (priority) stream leaves the
     first four — and hence every priority-free trace — unchanged. *)
  let streams = Prng.split_n rng 5 in
  let arr = streams.(0) and svc = streams.(1) and ddl = streams.(2) in
  let cnl = streams.(3) and pri = streams.(4) in
  let np = Network.n_procs net in
  let next_id = ref 0 in
  let events = ref [] in
  for t = 0 to slots - 1 do
    for p = 0 to np - 1 do
      if Prng.bernoulli arr arrival_prob then begin
        let id = !next_id in
        incr next_id;
        let service = 1 + Prng.geometric svc (1. /. mean_service) in
        let deadline =
          match deadline_slack with
          | None -> None
          | Some slack -> Some (t + 1 + Prng.int ddl slack)
        in
        let priority =
          if priority_levels = 0 then 0 else 1 + Prng.int pri priority_levels
        in
        events := Arrive { t; id; proc = p; service; deadline; priority } :: !events;
        if cancel_prob > 0. && Prng.bernoulli cnl cancel_prob then
          events :=
            Cancel { t = t + 1 + Prng.geometric cnl (1. /. mean_service); id }
            :: !events
      end
    done
  done;
  sort_trace (List.rev !events)

let trace_to_jsonl trace =
  let buf = Buffer.create 1024 in
  List.iter
    (fun ev ->
      (match ev with
      | Arrive { t; id; proc; service; deadline; priority } ->
        Buffer.add_string buf
          (Printf.sprintf "{\"t\":%d,\"ev\":\"arrive\",\"id\":%d,\"proc\":%d,\"service\":%d"
             t id proc service);
        (match deadline with
        | Some d -> Buffer.add_string buf (Printf.sprintf ",\"deadline\":%d" d)
        | None -> ());
        (* Priority 0 (the default) is omitted, so priority-free traces
           keep the original PR-2 on-disk format byte for byte. *)
        if priority > 0 then
          Buffer.add_string buf (Printf.sprintf ",\"priority\":%d" priority);
        Buffer.add_char buf '}'
      | Cancel { t; id } ->
        Buffer.add_string buf
          (Printf.sprintf "{\"t\":%d,\"ev\":\"cancel\",\"id\":%d" t id);
        Buffer.add_char buf '}'
      | Fault { t; clock; element } | Repair { t; clock; element } ->
        (* New event kinds appear only in traces that contain faults, so
           fault-free traces keep the original on-disk format; likewise
           the intra-cycle clock is emitted only when present, keeping
           slot-granular fault traces (PR 4) byte-identical. *)
        let ev = match ev with Fault _ -> "fault" | _ -> "repair" in
        let kind, idx =
          match element with
          | Fault.Link l -> ("link", l)
          | Fault.Box b -> ("box", b)
          | Fault.Res r -> ("res", r)
        in
        Buffer.add_string buf
          (Printf.sprintf "{\"t\":%d,\"ev\":%S,\"kind\":%S,\"idx\":%d" t ev kind
             idx);
        (match clock with
        | Some c -> Buffer.add_string buf (Printf.sprintf ",\"clock\":%d" c)
        | None -> ());
        Buffer.add_char buf '}');
      Buffer.add_char buf '\n')
    trace;
  Buffer.contents buf

type parse_error = { line : int; message : string }

exception Malformed of int * string

(* Minimal parser for the flat one-object-per-line format above: no
   nesting, values are ints or quoted strings without escapes. *)
let parse_fields line lineno =
  let fail msg = raise (Malformed (lineno, msg)) in
  let line = String.trim line in
  let n = String.length line in
  if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then
    fail "expected a {...} object";
  let body = String.sub line 1 (n - 2) in
  if String.trim body = "" then []
  else
    String.split_on_char ',' body
    |> List.map (fun field ->
           match String.index_opt field ':' with
           | None -> fail "expected \"key\":value"
           | Some i ->
             let key = String.trim (String.sub field 0 i) in
             let value =
               String.trim (String.sub field (i + 1) (String.length field - i - 1))
             in
             let unquote s =
               let l = String.length s in
               if l >= 2 && s.[0] = '"' && s.[l - 1] = '"' then
                 String.sub s 1 (l - 2)
               else s
             in
             (unquote key, unquote value))

(* Checkpoints write ints as JSON numbers, which hold every integer up
   to 2^53 exactly and no more (Json.to_int): an id past it would be
   written as another task's. *)
let max_exact_int = 1 lsl 53

let int_value lineno k v =
  match int_of_string_opt v with
  | Some n when n >= -max_exact_int && n <= max_exact_int -> n
  | Some _ ->
    raise (Malformed (lineno, Printf.sprintf "field %S is past +/-2^53" k))
  | None ->
    raise (Malformed (lineno, Printf.sprintf "field %S is not an integer" k))

let opt_int_field lineno fields k =
  match List.assoc_opt k fields with
  | None -> None
  | Some v -> Some (int_value lineno k v)

let parse_line lineno line =
  let fields = parse_fields line lineno in
  let fail msg = raise (Malformed (lineno, msg)) in
  let int_field k =
    match List.assoc_opt k fields with
    | None -> fail (Printf.sprintf "missing field %S" k)
    | Some v -> int_value lineno k v
  in
  match List.assoc_opt "ev" fields with
  | Some "arrive" ->
    let service = int_field "service" in
    if service < 1 then fail "field \"service\" must be >= 1";
    let proc = int_field "proc" in
    if proc < 0 then fail "field \"proc\" must be >= 0";
    let priority =
      match opt_int_field lineno fields "priority" with
      | None -> 0
      | Some y when y >= 0 -> y
      | Some _ -> fail "field \"priority\" must be >= 0"
    in
    [ Arrive
        { t = int_field "t"; id = int_field "id"; proc; service;
          deadline = opt_int_field lineno fields "deadline"; priority } ]
  | Some "cancel" -> [ Cancel { t = int_field "t"; id = int_field "id" } ]
  | Some (("fault" | "repair") as which) ->
    let idx = int_field "idx" in
    if idx < 0 then fail "field \"idx\" must be >= 0";
    let element =
      match List.assoc_opt "kind" fields with
      | Some "link" -> Fault.Link idx
      | Some "box" -> Fault.Box idx
      | Some "res" -> Fault.Res idx
      | Some other -> fail (Printf.sprintf "unknown element kind %S" other)
      | None -> fail "missing field \"kind\""
    in
    let clock =
      match opt_int_field lineno fields "clock" with
      | Some c when c < 0 -> fail "field \"clock\" must be >= 0"
      | clock -> clock
    in
    let t = int_field "t" in
    if which = "fault" then [ Fault { t; clock; element } ]
    else [ Repair { t; clock; element } ]
  | Some other -> fail (Printf.sprintf "unknown event kind %S" other)
  | None -> fail "missing field \"ev\""

(* The streaming core under every reader: pull lines one at a time from
   [next_line], parse, fold. Constant memory in the input length — the
   accumulator is whatever the caller builds — and events are delivered
   in file order, so a serve loop can act on each line as it arrives.
   A malformed line is handed to [on_error] and dropped instead of
   aborting the whole stream — a serve socket must survive hostile or
   truncated input; the strict readers below stop by raising out of
   [on_error]. *)
let fold_lines_lenient next_line ~on_error ~init ~f =
  let rec go lineno acc =
    match next_line () with
    | None -> acc
    | Some line ->
      let lineno = lineno + 1 in
      if String.trim line = "" then go lineno acc
      else (
        match
          try parse_line lineno line with
          | Malformed _ as e -> raise e
          | e -> raise (Malformed (lineno, Printexc.to_string e))
        with
        | events -> go lineno (List.fold_left f acc events)
        | exception Malformed (line, message) ->
          on_error { line; message };
          go lineno acc)
  in
  go 0 init

let fold_trace_channel_lenient ic ~on_error ~init ~f =
  fold_lines_lenient
    (fun () -> try In_channel.input_line ic with Sys_error _ -> None)
    ~on_error ~init ~f

(* All events of [next_line] in time order, or the first malformed
   line. *)
let read_lines next_line =
  match
    fold_lines_lenient next_line
      ~on_error:(fun { line; message } -> raise (Malformed (line, message)))
      ~init:[] ~f:(fun acc ev -> ev :: acc)
  with
  | rev -> Ok (sort_trace (List.rev rev))
  | exception Malformed (line, message) -> Error { line; message }

let import text =
  (* One cursor over [text]; no per-line string list is materialized. *)
  let pos = ref 0 in
  let len = String.length text in
  let next_line () =
    if !pos >= len then None
    else
      let start = !pos in
      let stop =
        match String.index_from_opt text start '\n' with
        | Some i -> i
        | None -> len
      in
      pos := stop + 1;
      Some (String.sub text start (stop - start))
  in
  read_lines next_line

let write_trace file trace =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (trace_to_jsonl trace))

let read_trace file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (* Streamed line at a time; the whole file is never in memory. *)
      match read_lines (fun () -> In_channel.input_line ic) with
      | Ok trace -> trace
      | Error { line; message } ->
        (* the historical prefix: the CLI prints this text, and the
           cram tests pin it *)
        failwith
          (Printf.sprintf "Workload.trace_of_jsonl: line %d: %s" line message))

let hetero_spec ?(levels = 1) rng ~types ~requests ~free =
  let prio () = if levels <= 1 then 0 else 1 + Prng.int rng levels in
  Rsin_core.Hetero.
    { requests = List.map (fun p -> (p, Prng.int rng types, prio ())) requests;
      free = List.map (fun r -> (r, Prng.int rng types, prio ())) free }
