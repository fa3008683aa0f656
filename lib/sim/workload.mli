(** Random workload generation for the Monte-Carlo experiments.

    The authors' simulation data (Hicks' thesis, cited as [22]/[44]) is
    not available; these generators regenerate statistically equivalent
    scenarios: independent random subsets of requesting processors and
    free resources at given densities, optional random pre-occupied
    circuits (a partially busy network), random priority/preference
    levels, and random type assignments for heterogeneous pools. All
    randomness flows through {!Rsin_util.Prng}, so every experiment is
    reproducible from its seed. *)

val snapshot :
  ?req_density:float ->
  ?res_density:float ->
  Rsin_util.Prng.t ->
  Rsin_topology.Network.t ->
  int list * int list
(** [(requests, free)] — each processor requests independently with
    probability [req_density] (default 0.5); each resource port is free
    with probability [res_density] (default 0.5). *)

val preoccupy :
  Rsin_util.Prng.t -> Rsin_topology.Network.t -> circuits:int -> int
(** Establishes up to [circuits] random processor→resource circuits
    (greedy shortest free path, skipping blocked picks) on the network
    and returns the number actually established. Processors and
    resources already terminating a circuit are not reused. *)

val occupied_endpoints : Rsin_topology.Network.t -> int list * int list
(** [(procs, ress)] whose ports terminate a live circuit. *)

val fail_links : Rsin_util.Prng.t -> Rsin_topology.Network.t -> count:int -> int
(** Marks up to [count] random free links permanently busy (each as a
    single-link circuit), modelling broken links; returns how many were
    taken. Used by the fault-tolerance experiment E22. *)

val with_priorities :
  Rsin_util.Prng.t -> levels:int -> int list -> (int * int) list
(** Attaches a uniform random priority in [\[1, levels\]] to each id. *)

val with_types :
  Rsin_util.Prng.t -> types:int -> int list -> (int * int) list
(** Attaches a uniform random type in [\[0, types)] to each id. *)

(** {1 Recorded workload traces}

    A workload trace is the replayable input of the online allocation
    engine ({!Rsin_engine.Engine}): task arrivals (with per-task service
    time and optional deadline) and cancellations, in slot order. Traces
    round-trip through a one-JSON-object-per-line format, so production
    workloads can be recorded once and replayed deterministically across
    engine versions ([rsin replay]). *)

type trace_event =
  | Arrive of {
      t : int;
      id : int;
      proc : int;
      service : int;
      deadline : int option;
      priority : int;
    }
      (** Task [id] arrives at processor [proc] in slot [t]; the resource
          serving it stays busy [service] slots after transmission. A task
          still queued at slot [deadline] expires unserved. [priority]
          (>= 0, 0 = none) matters only to the engine's priority
          discipline; it is omitted from the JSONL form when 0, keeping
          priority-free traces in the original on-disk format. *)
  | Cancel of { t : int; id : int }
      (** Task [id] is withdrawn at slot [t] if still queued. *)
  | Fault of { t : int; clock : int option; element : Rsin_fault.Fault.element }
      (** The element goes down at slot [t]; circuits riding it are torn
          down by the engine and their tasks re-admitted at the queue
          head. JSONL form
          [{"t":5,"ev":"fault","kind":"link","idx":12}] — fault events
          are emitted only when present, so fault-free traces keep the
          original on-disk format byte for byte. [clock] is the optional
          intra-cycle status-bus clock (JSONL [,"clock":k], omitted when
          absent, so slot-granular traces also keep their format): in the
          engine's token mode the element dies {e mid-cycle} at that
          clock of the slot's scheduling cycle. *)
  | Repair of { t : int; clock : int option; element : Rsin_fault.Fault.element }
      (** The element comes back up at slot [t]. Repairs always apply at
          the cycle boundary; a recorded [clock] is kept for round-trip
          fidelity but does not affect replay. *)

val event_time : trace_event -> int

val event_id : trace_event -> int
(** Task id of an [Arrive]/[Cancel]; [-1] for fault/repair events. *)

val fault_events : Rsin_fault.Fault.schedule -> trace_event list
(** Lifts an injector schedule ({!Rsin_fault.Fault.inject}) into trace
    events, ready to merge into a workload trace. *)

val fault_events_clocked : Rsin_fault.Fault.clocked_schedule -> trace_event list
(** Lifts a clock-granular schedule ({!Rsin_fault.Fault.inject_clocked})
    into trace events carrying the intra-cycle clock. *)

val sort_trace : trace_event list -> trace_event list
(** Stable sort by slot, preserving recorded order within a slot. *)

val synthesize :
  ?mean_service:float ->
  ?deadline_slack:int ->
  ?cancel_prob:float ->
  ?priority_levels:int ->
  Rsin_util.Prng.t ->
  Rsin_topology.Network.t ->
  slots:int ->
  arrival_prob:float ->
  trace_event list
(** Bernoulli arrivals per processor per slot with geometric service
    times (mean [mean_service], default 4). With [deadline_slack], each
    task gets a deadline uniform in [\[t+1, t+slack\]]; with
    [cancel_prob], that fraction of tasks is cancelled after a geometric
    delay; with [priority_levels = k > 0], each task gets a priority
    uniform in [\[1, k\]] (default 0: no priorities). The processes draw
    from {e independent} sub-streams ({!Rsin_util.Prng.split_n}), so
    e.g. enabling cancellations or priorities does not change the
    arrival pattern. *)

val trace_to_jsonl : trace_event list -> string
(** One JSON object per line, e.g.
    [{"t":3,"ev":"arrive","id":0,"proc":5,"service":4,"deadline":9}]. *)

type parse_error = { line : int; message : string }
(** A malformed trace line: 1-based line number plus what was wrong. *)

(** {2 The line grammar}

    Each line is one JSON object with unique keys, decoded in one pass
    that allocates only the event it returns. Keys and string values
    are double-quoted and hold no escapes. The int fields ([t], [id],
    [proc], [service], [deadline], [priority], [idx], [clock]) hold JSON
    integer literals — an optional minus, no leading zero, no fraction
    or exponent — of magnitude at most 2{^53}; [ev] and [kind] hold
    strings. Any other key is ignored, and its value must be a string,
    a JSON number, [true], [false] or [null]; a known key the event's
    kind does not read is ignored unchecked. Whitespace is JSON's
    (space, tab, CR, LF); a blank line is skipped.

    A line with one bad field is reported as ["missing field "k""],
    ["field "k" is not an integer"], ["field "k" is past +/-2^53"],
    ["field "k" must be >= 0"] (or [>= 1] for [service]), ["unknown
    event kind "x""] or ["unknown element kind "x""]. A line that
    is not an object reads ["expected a {...} object"]; a member that
    is not ["key":value] reads ["expected "key":value"]; a repeated
    key, ["duplicate field "k""]; an unquoted [ev] or [kind], ["field
    "k" is not a string"]. *)

val fold_lines_lenient :
  (unit -> string option) ->
  on_error:(parse_error -> unit) ->
  init:'a ->
  f:('a -> trace_event -> 'a) ->
  'a
(** The one streaming core under every reader, over an arbitrary line
    source ([None] = end of stream). Each line is parsed and folded
    into the accumulator before the next one is read, so memory is
    constant in the input length — this is what lets [rsin serve]
    treat an unbounded stdin/socket stream as a workload and what
    {!read_trace} replays arbitrarily large trace files with. Events
    are delivered in file order (not time-sorted); blank lines are
    skipped. A malformed line goes to [on_error] with its line-numbered
    {!parse_error} and is dropped; the fold runs to the end of the
    source unless [on_error] raises. The chaos harness drives this
    directly with corrupted in-memory streams. The decoder's scratch is
    allocated once per fold, so folds on different domains share
    nothing. *)

val max_line_bytes : int
(** 65536: the longest line {!fold_trace_channel_lenient} reads. Valid
    lines are under 200 bytes. *)

val fold_trace_channel_lenient :
  in_channel ->
  on_error:(parse_error -> unit) ->
  init:'a ->
  f:('a -> trace_event -> 'a) ->
  'a
(** {!fold_lines_lenient} over a channel, for long-lived serving: a
    malformed line is reported to [on_error] and {e dropped} — the fold
    continues with the next line instead of aborting — and a
    [Sys_error] while reading (a client disconnecting mid-line) ends
    the stream cleanly like EOF. Lines are read into one reused buffer
    and decoded where they sit, so a line costs no string: a line
    longer than {!max_line_bytes} is reported (["line longer than 65536
    bytes"], line-numbered) and skipped up to its newline, so a client
    that never sends one holds the server to a fixed buffer. A last
    line without a newline still counts. The robustness contract of
    [rsin serve]: hostile or truncated input never takes the server
    down. *)

val import : string -> (trace_event list, parse_error) result
(** Inverse of {!trace_to_jsonl}; result is time-sorted. Malformed or
    truncated input — bad JSON shape, missing or non-integer fields,
    unknown event kinds, out-of-range values, any integer past ±2{^53}
    (a checkpoint could not write it exactly) — yields a line-numbered
    [Error] instead of an exception: the first such line stops the
    read. Streams over the string with the line-at-a-time core
    {!fold_lines_lenient}. *)

val write_trace : string -> trace_event list -> unit
(** Writes the JSONL form to a file. *)

val read_trace : string -> trace_event list
(** Reads a JSONL trace file through {!fold_lines_lenient} (line at a
    time, never the whole file in memory), returning the events
    time-sorted. Raises [Sys_error], or [Failure] naming the first
    malformed line (["Workload.trace_of_jsonl: line N: ..."]). *)

val hetero_spec :
  ?levels:int ->
  Rsin_util.Prng.t ->
  types:int ->
  requests:int list ->
  free:int list ->
  Rsin_core.Hetero.spec
(** Builds a heterogeneous spec with random types and (when
    [levels > 1]) random priorities/preferences. Default [levels = 1]
    (all priorities equal). *)
