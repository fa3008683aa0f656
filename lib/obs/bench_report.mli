(** Shared measurement harness and structured perf reports.

    Every CI bench historically printed prose tables and threw the
    numbers away; this module is where they keep them. A bench builds a
    {!t}, adds one {!case} per parameter point (an arrival rate, a
    topology, a solver), records distributions (wall-clock, allocation)
    and deterministic counts (solver work records, allocation totals)
    into it, and {!write}s the result as [BENCH_<name>.json]. The
    [rsin perf] subcommand then {!diff}s a fresh run against the
    committed baselines in [bench/baselines/] and fails CI on
    regression — the perf trajectory ROADMAP item 2 asks for.

    {2 Schema (version 1)}

    {[
    { "bench": "engine", "schema": 1, "quick": false,
      "env": { "ocaml": "5.1.1", "git_sha": "...", "date": "...", "os": "Unix" },
      "cases": [
        { "case": "arrival=0.02",
          "metrics": {
            "warm.wall_us":     { "kind": "time",  "unit": "us",
                                  "n": 3, "mean": ..., "ci95": ...,
                                  "p50": ..., "p95": ..., "min": ..., "max": ... },
            "warm.minor_words": { "kind": "alloc", "unit": "words", ... },
            "warm.solver_work": { "kind": "count", "unit": "arcs", ... } } } ] }
    ]}

    Scalar metrics use the same shape with [n = 1] and
    [mean = p50 = p95 = min = max = value], [ci95 = 0] — one record
    type round-trips everything. [kind] drives the comparator's
    tolerance: ["time"] and ["alloc"] measurements are noisy (CI
    machines differ), ["count"] metrics are deterministic given a seed
    and regress at much tighter thresholds. A ["yield"] is a
    deterministic count where more is better (circuits allocated, tasks
    completed): it regresses when it falls. *)

type kind =
  | Time
  | Alloc
  | Count  (** deterministic, lower is better (solver work, clocks) *)
  | Yield  (** deterministic, higher is better (allocations, completions) *)

type metric = {
  kind : kind;
  unit_ : string;
  n : int;
  mean : float;
  ci95 : float;   (** Welford normal-approximation half-width, 0 for scalars *)
  p50 : float;    (** exact sample percentiles, not sketch approximations *)
  p95 : float;
  lo : float;
  hi : float;
}

type case
(** One parameter point of a bench; metrics attach to it by name. *)

type t
(** A mutable report under construction (or parsed back from JSON). *)

val create : ?quick:bool -> ?env:(string * string) list -> string -> t
(** [create bench] starts an empty report. [quick] records whether the
    bench ran in reduced-trial mode — the comparator refuses to compare
    across differing [quick] flags, since case parameters change.
    [env] defaults to {!default_env}. *)

val default_env : unit -> (string * string) list
(** [ocaml] (compiler version), [git_sha] (from [GITHUB_SHA] or
    [RSIN_GIT_SHA], else ["unknown"]), [date] (UTC ISO 8601), [os]. *)

val bench_name : t -> string
val quick : t -> bool
val env : t -> (string * string) list

val case : t -> string -> case
(** Get or create the case with this name (appended in order). *)

val case_names : t -> string list

(** {1 Recording} *)

type measurement = {
  wall_us : float array;      (** per-run monotonic wall clock *)
  minor_words : float array;  (** per-run [Gc.minor_words] delta *)
}

val measure : ?warmup:int -> ?runs:int -> (unit -> unit) -> measurement
(** Runs the thunk [warmup] times (default 3) unmeasured, then [runs]
    times (default 10) measured: monotonic wall clock
    ({!Rsin_util.Clock}) and minor-heap allocation words around each
    run. *)

val record : case -> ?prefix:string -> measurement -> unit
(** Adds ["wall_us"] (kind [Time]) and ["minor_words"] (kind [Alloc])
    metrics from the samples; [prefix] (e.g. ["warm"]) namespaces them
    as ["warm.wall_us"]. *)

val record_samples :
  case -> name:string -> kind:kind -> ?unit_:string -> float array -> unit
(** A distribution metric from raw samples (exact percentiles). *)

val record_count : case -> name:string -> ?unit_:string -> float -> unit
(** A deterministic scalar metric (kind [Count]). *)

val record_yield : case -> name:string -> ?unit_:string -> float -> unit
(** A deterministic scalar metric where more is better (kind [Yield]). *)

val record_counters : case -> ?prefix:string -> Metrics.t -> unit
(** Every counter currently in the registry, as [Count] metrics named
    [prefix ^ name] — the solver work-record capture: run with an
    observer, then snapshot its registry into the case. *)

(** {1 Serialization} *)

val to_json : t -> Rsin_util.Json.t
val of_json : Rsin_util.Json.t -> (t, string) result
(** Inverse of {!to_json}; every field is required, under
    {!Rsin_util.Json.Decode}'s rule. *)

val equal : t -> t -> bool

val filename : t -> string
(** ["BENCH_<bench>.json"]. *)

val write : ?dir:string -> t -> string
(** Writes {!filename} under [dir] (default: [$RSIN_BENCH_DIR] or the
    current directory) and returns the path written. *)

val read_file : string -> (t, string) result

(** {1 Comparison} *)

type status = Same | Regression | Improvement | Only_baseline | Only_fresh

type delta = {
  d_case : string;
  d_metric : string;
  base : float;     (** baseline mean ([nan] for [Only_fresh]) *)
  fresh : float;    (** fresh mean ([nan] for [Only_baseline]) *)
  ratio : float;    (** fresh / baseline ([nan] when undefined) *)
  d_status : status;
}

val diff :
  ?time_tolerance:float -> ?count_tolerance:float -> baseline:t -> t -> delta list
(** Per-metric comparison of means. [Time]/[Alloc] metrics regress when
    [fresh > time_tolerance * base] (default 2.0 — wide enough for CI
    machine variance) and improve symmetrically; [Count] metrics use
    [count_tolerance] (default 1.01 — deterministic modulo compiler
    differences). A [Yield] uses [count_tolerance] the other way round:
    it regresses when [fresh < base / count_tolerance]. The fresh
    report's kind decides, so a baseline recorded before a count became
    a yield still compares by what the metric means now. Metrics present
    on only one side are reported as [Only_*] but never fail. A zero
    baseline with a zero fresh value is [Same]; zero against nonzero
    falls back to the absolute tolerance of one unit. Raises
    [Invalid_argument] when the two reports' [quick] flags differ (their
    case parameters are not comparable). *)

val regressions : delta list -> delta list
