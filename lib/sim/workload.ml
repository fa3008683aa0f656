module Prng = Rsin_util.Prng
module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Fault = Rsin_fault.Fault
module Json = Rsin_util.Json

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

(* --- the JSONL decoder ----------------------------------------------------

   One left-to-right pass over a line (or a range of a buffer) notes
   where each known key's value sits: start, stop, and whether it was
   quoted. The fields are then checked in a fixed order, ints converted
   in place, and only the event itself is allocated. The grammar is a
   JSON object with unique keys on one line:
   - keys and string values are double-quoted, with no escapes;
   - int fields hold JSON integer literals (an optional minus, no
     leading zero, no fraction or exponent) of magnitude <= 2^53;
   - "ev" and "kind" hold strings;
   - any other key is ignored, but its value must be a string, a JSON
     number, true, false or null (no nested arrays or objects);
   - a known key the event kind does not read is ignored unchecked;
   - whitespace is JSON's: space, tab, CR, LF. *)

let key_names =
  [| "t"; "ev"; "id"; "proc"; "service"; "deadline"; "priority"; "kind"; "idx";
     "clock" |]

let k_t = 0
let k_ev = 1
let k_id = 2
let k_proc = 3
let k_service = 4
let k_deadline = 5
let k_priority = 6
let k_kind = 7
let k_idx = 8
let k_clock = 9

(* Checkpoints write ints as JSON numbers, which hold every integer up
   to 2^53 exactly and no more (Json.to_int): an id past it would be
   written as another task's. *)
let max_exact_int = 1 lsl 53

(* The decoder's per-fold scratch. Never shared between folds: the
   chaos harness, the tests and [Serve] callers may fold on different
   domains at once. *)
type scratch = {
  (* Per known key [k]: [at.(3k)] the value's first byte (-1: absent),
     [at.(3k+1)] one past its last, [at.(3k+2)] 1 when it was quoted
     (the quotes excluded from the range). *)
  at : int array;
  (* Start and stop of each unknown key met on the line, for the
     duplicate check. *)
  mutable unknown : int array;
  mutable n_unknown : int;
}

let scratch () =
  { at = Array.make (3 * Array.length key_names) (-1);
    unknown = Array.make 16 0; n_unknown = 0 }

let fail lineno msg = raise (Malformed (lineno, msg))
let bad_member lineno = fail lineno "expected \"key\":value"

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let rec skip_ws s i hi =
  if i < hi && is_ws (String.unsafe_get s i) then skip_ws s (i + 1) hi else i

let rec skip_ws_back s lo i =
  if i > lo && is_ws (String.unsafe_get s (i - 1)) then skip_ws_back s lo (i - 1)
  else i

(* Whether s.[i .. i+len-1] equals w.[j .. j+len-1]. *)
let rec same s i w j len =
  len = 0
  || String.unsafe_get s i = String.unsafe_get w j
     && same s (i + 1) w (j + 1) (len - 1)

let is s i hi word = hi - i = String.length word && same s i word 0 (hi - i)

let either s i hi a b =
  if is s i hi key_names.(a) then a else if is s i hi key_names.(b) then b else -1

(* The known key s.[i .. hi-1] names, or -1: dispatched on length. *)
let find_key s i hi =
  match hi - i with
  | 1 -> if String.unsafe_get s i = 't' then k_t else -1
  | 2 -> either s i hi k_ev k_id
  | 3 -> either s i hi k_idx k_idx
  | 4 -> either s i hi k_proc k_kind
  | 5 -> either s i hi k_clock k_clock
  | 7 -> either s i hi k_service k_service
  | 8 -> either s i hi k_deadline k_priority
  | _ -> -1

(* The closing quote of a string whose first byte is at [i]. *)
let rec string_end s i hi lineno =
  if i >= hi then bad_member lineno
  else
    match String.unsafe_get s i with
    | '"' -> i
    | '\\' -> bad_member lineno
    | _ -> string_end s (i + 1) hi lineno

(* One past a bare value starting at [i]. *)
let rec token_end s i hi =
  if i < hi
     && match String.unsafe_get s i with
        | ' ' | '\t' | '\n' | '\r' | ',' | '}' -> false
        | _ -> true
  then token_end s (i + 1) hi
  else i

(* A bare value of an unknown key: a JSON number, true, false or null.
   Only a line that carries an unknown key pays for this check. *)
let scalar s i hi =
  match Json.parse (String.sub s i (hi - i)) with
  | Ok (Json.Num _ | Json.Bool _ | Json.Null) -> true
  | Ok (Json.Str _ | Json.Arr _ | Json.Obj _) | Error _ -> false

let duplicate lineno s i hi =
  fail lineno (Printf.sprintf "duplicate field %S" (String.sub s i (hi - i)))

(* An unknown key at s.[ks .. ke-1] with a bare or quoted value. *)
let unknown_key sc s ks ke ~quoted vs ve lineno =
  for j = 0 to sc.n_unknown - 1 do
    let a = sc.unknown.(2 * j) and b = sc.unknown.((2 * j) + 1) in
    if b - a = ke - ks && same s a s ks (ke - ks) then duplicate lineno s ks ke
  done;
  if 2 * sc.n_unknown = Array.length sc.unknown then begin
    let bigger = Array.make (2 * Array.length sc.unknown) 0 in
    Array.blit sc.unknown 0 bigger 0 (Array.length sc.unknown);
    sc.unknown <- bigger
  end;
  sc.unknown.(2 * sc.n_unknown) <- ks;
  sc.unknown.((2 * sc.n_unknown) + 1) <- ke;
  sc.n_unknown <- sc.n_unknown + 1;
  if (not quoted) && not (scalar s vs ve) then bad_member lineno

(* The members of an object whose braces are gone: [i] sits on the
   first byte of a member, [hi] is the closing brace. *)
let rec members sc s i hi lineno =
  if i >= hi || String.unsafe_get s i <> '"' then bad_member lineno;
  let ks = i + 1 in
  let ke = string_end s ks hi lineno in
  let i = skip_ws s (ke + 1) hi in
  if i >= hi || String.unsafe_get s i <> ':' then bad_member lineno;
  let v = skip_ws s (i + 1) hi in
  let quoted = v < hi && String.unsafe_get s v = '"' in
  let vs = if quoted then v + 1 else v in
  let ve = if quoted then string_end s vs hi lineno else token_end s v hi in
  if ve = v then bad_member lineno;
  let k = find_key s ks ke in
  if k < 0 then unknown_key sc s ks ke ~quoted vs ve lineno
  else begin
    let b = 3 * k in
    if sc.at.(b) >= 0 then duplicate lineno s ks ke;
    sc.at.(b) <- vs;
    sc.at.(b + 1) <- ve;
    sc.at.(b + 2) <- (if quoted then 1 else 0)
  end;
  let i = skip_ws s (if quoted then ve + 1 else ve) hi in
  if i < hi then
    if String.unsafe_get s i = ',' then members sc s (skip_ws s (i + 1) hi) hi lineno
    else bad_member lineno

let present sc k = sc.at.(3 * k) >= 0

let not_integer lineno k =
  fail lineno (Printf.sprintf "field %S is not an integer" key_names.(k))

(* The digits s.[i .. hi-1] as a magnitude, saturating past 2^53; -1
   when a byte is no digit. *)
let rec magnitude s i hi n =
  if i = hi then n
  else
    let c = String.unsafe_get s i in
    if c < '0' || c > '9' then -1
    else
      magnitude s (i + 1) hi
        (if n > max_exact_int then n else (10 * n) + Char.code c - 48)

let int_field sc s lineno k =
  let b = 3 * k in
  let i = sc.at.(b) and hi = sc.at.(b + 1) in
  if i < 0 then fail lineno (Printf.sprintf "missing field %S" key_names.(k));
  if sc.at.(b + 2) = 1 then not_integer lineno k;
  let neg = String.unsafe_get s i = '-' in
  let d = if neg then i + 1 else i in
  if d = hi || (String.unsafe_get s d = '0' && d + 1 < hi) then
    not_integer lineno k;
  let n = magnitude s d hi 0 in
  if n < 0 then not_integer lineno k;
  if n > max_exact_int then
    fail lineno (Printf.sprintf "field %S is past +/-2^53" key_names.(k));
  if neg then -n else n

let opt_int_field sc s lineno k =
  if present sc k then Some (int_field sc s lineno k) else None

(* Whether string field [k] is [word]; [k] must be present. *)
let string_is sc s k word = is s sc.at.(3 * k) sc.at.((3 * k) + 1) word

let string_field sc lineno k =
  if not (present sc k) then
    fail lineno (Printf.sprintf "missing field %S" key_names.(k));
  if sc.at.((3 * k) + 2) = 0 then
    fail lineno (Printf.sprintf "field %S is not a string" key_names.(k))

let field_text sc s k =
  let b = 3 * k in
  String.sub s sc.at.(b) (sc.at.(b + 1) - sc.at.(b))

(* The event on s.[lo .. hi-1]. The fields are checked in a fixed
   order and the first failure is reported: an arrival's service, proc,
   priority, deadline, id, then t; a cancel's id, then t; a fault's or
   repair's idx, kind, clock, then t. *)
let decode sc lineno s lo hi =
  let lo = skip_ws s lo hi in
  let hi = skip_ws_back s lo hi in
  if hi - lo < 2 || String.unsafe_get s lo <> '{' || String.unsafe_get s (hi - 1) <> '}'
  then fail lineno "expected a {...} object";
  for k = 0 to Array.length key_names - 1 do
    sc.at.(3 * k) <- -1
  done;
  sc.n_unknown <- 0;
  let i = skip_ws s (lo + 1) (hi - 1) in
  if i < hi - 1 then members sc s i (hi - 1) lineno;
  string_field sc lineno k_ev;
  if string_is sc s k_ev "arrive" then begin
    let service = int_field sc s lineno k_service in
    if service < 1 then fail lineno "field \"service\" must be >= 1";
    let proc = int_field sc s lineno k_proc in
    if proc < 0 then fail lineno "field \"proc\" must be >= 0";
    let priority = if present sc k_priority then int_field sc s lineno k_priority else 0 in
    if priority < 0 then fail lineno "field \"priority\" must be >= 0";
    let deadline = opt_int_field sc s lineno k_deadline in
    let id = int_field sc s lineno k_id in
    let t = int_field sc s lineno k_t in
    Arrive { t; id; proc; service; deadline; priority }
  end
  else if string_is sc s k_ev "cancel" then begin
    let id = int_field sc s lineno k_id in
    Cancel { t = int_field sc s lineno k_t; id }
  end
  else if string_is sc s k_ev "fault" || string_is sc s k_ev "repair" then begin
    let idx = int_field sc s lineno k_idx in
    if idx < 0 then fail lineno "field \"idx\" must be >= 0";
    string_field sc lineno k_kind;
    let element =
      if string_is sc s k_kind "link" then Fault.Link idx
      else if string_is sc s k_kind "box" then Fault.Box idx
      else if string_is sc s k_kind "res" then Fault.Res idx
      else
        fail lineno
          (Printf.sprintf "unknown element kind %S" (field_text sc s k_kind))
    in
    let clock = opt_int_field sc s lineno k_clock in
    (match clock with
    | Some c when c < 0 -> fail lineno "field \"clock\" must be >= 0"
    | _ -> ());
    let t = int_field sc s lineno k_t in
    if string_is sc s k_ev "fault" then Fault { t; clock; element }
    else Repair { t; clock; element }
  end
  else
    fail lineno (Printf.sprintf "unknown event kind %S" (field_text sc s k_ev))

let blank s lo hi = skip_ws s lo hi = hi

(* One line of a fold: skipped when blank, else decoded and folded in,
   or handed to [on_error] and dropped. *)
let step sc ~on_error ~f lineno s lo hi acc =
  if blank s lo hi then acc
  else
    match decode sc lineno s lo hi with
    | ev -> f acc ev
    | exception Malformed (line, message) ->
      on_error { line; message };
      acc
    | exception e ->
      on_error { line = lineno; message = Printexc.to_string e };
      acc

(* The streaming core under every reader: pull lines one at a time from
   [next_line], decode, fold. Constant memory in the input length — the
   accumulator is whatever the caller builds — and events are delivered
   in file order, so a serve loop can act on each line as it arrives.
   A malformed line is handed to [on_error] and dropped instead of
   aborting the whole stream — a serve socket must survive hostile or
   truncated input; the strict readers below stop by raising out of
   [on_error]. *)
let fold_lines_lenient next_line ~on_error ~init ~f =
  let sc = scratch () in
  let rec go lineno acc =
    match next_line () with
    | None -> acc
    | Some line ->
      let lineno = lineno + 1 in
      go lineno (step sc ~on_error ~f lineno line 0 (String.length line) acc)
  in
  go 0 init

let max_line_bytes = 65536

let rec newline s i hi =
  if i >= hi then -1 else if String.unsafe_get s i = '\n' then i else newline s (i + 1) hi

(* Lines are decoded where they sit in one reused buffer. [s] views
   [buf] as a string: the decoder reads it only while the bytes stand
   still, and keeps nothing of it (a message copies what it quotes). *)
let fold_trace_channel_lenient ic ~on_error ~init ~f =
  let sc = scratch () in
  let buf = Bytes.create (max_line_bytes + 1) in
  let s = Bytes.unsafe_to_string buf in
  (* [buf.[start .. stop-1]] is read but not yet decoded, and holds no
     newline before [scan]. [skipping]: the bytes belong to a line
     already reported too long. *)
  let rec go lineno acc start scan stop skipping =
    let nl = newline s scan stop in
    if nl >= 0 then
      if skipping then go lineno acc (nl + 1) (nl + 1) stop false
      else
        let lineno = lineno + 1 in
        go lineno (step sc ~on_error ~f lineno s start nl acc) (nl + 1) (nl + 1) stop
          false
    else if skipping then read lineno acc 0 true
    else if stop - start > max_line_bytes then begin
      let lineno = lineno + 1 in
      on_error
        { line = lineno;
          message = Printf.sprintf "line longer than %d bytes" max_line_bytes };
      read lineno acc 0 true
    end
    else begin
      Bytes.blit buf start buf 0 (stop - start);
      read lineno acc (stop - start) false
    end
  (* Reads more after the [have] bytes at the front of [buf]; a
     [Sys_error] (a client disconnecting mid-line) ends the stream like
     end of file, and a last line without a newline still counts. *)
  and read lineno acc have skipping =
    match In_channel.input ic buf have (Bytes.length buf - have) with
    | 0 | (exception Sys_error _) ->
      if skipping || have = 0 then acc
      else step sc ~on_error ~f (lineno + 1) s 0 have acc
    | n -> go lineno acc 0 have (have + n) skipping
  in
  read 0 init 0 false

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
