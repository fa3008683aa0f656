(** Monotonic wall clock for benchmarks and the measurement harness.

    [Unix.gettimeofday] follows the system's civil time, which NTP can
    step backwards or forwards mid-run; a timed region spanning such a
    step reports garbage (possibly negative) durations. Everything in
    the repository that times code goes through this module instead,
    which reads [CLOCK_MONOTONIC] via a tiny C stub and therefore only
    ever moves forward.

    The epoch is arbitrary (typically boot time): only differences
    between two readings are meaningful. *)

external now_ns : unit -> (int64[@unboxed])
  = "rsin_clock_monotonic_ns_bytecode" "rsin_clock_monotonic_ns_native"
[@@noalloc]
(** Current monotonic time in nanoseconds since an arbitrary epoch.
    Declared [external] here, not only in clock.ml, so every native
    caller calls the stub directly and gets its unboxed result: a
    reading allocates nothing, and a spin loop may poll it. *)

val elapsed_us : since:int64 -> float
(** Microseconds elapsed since an earlier {!now_ns} reading. *)

val time_us : (unit -> 'a) -> 'a * float
(** [time_us f] runs [f ()] and returns its result together with the
    monotonic wall-clock microseconds it took. *)
