(** A tiny fixed-size pool of OCaml 5 domains with a work-stealing task
    runner — just enough multicore for the sharded serving engine
    without an external dependency (the stdlib's [Domain], [Mutex],
    [Condition] and [Atomic] are all it uses).

    A pool of size [n] owns [n - 1] spawned worker domains; the caller's
    domain is always worker 0, so [create 1] spawns nothing and every
    task runs inline, in {!finish} — the degenerate single-core pool
    behaves exactly like plain sequential code, which is what makes
    [serve --domains 1] a valid determinism reference.

    A batch is handed over through one atomic generation counter per
    worker. A waiting domain — a worker between batches, or the caller
    in {!finish} — polls for a bounded 50 us, a few park/wake round
    trips, before it parks on a condition variable, so back-to-back
    batches cost no futex wake-up, and an idle pool burns at most that
    spin before it sleeps. The spin is on only when the pool fits the
    machine ([size <= Domain.recommended_domain_count ()]); an
    oversubscribed pool parks at once, since a spinning worker would
    take the core the domain it waits for needs. *)

type t

val create : int -> t
(** [create n] makes a pool of [n >= 1] workers ([n - 1] new domains).
    Raises [Invalid_argument] when [n < 1]. *)

val size : t -> int

val start : t -> (unit -> unit) array -> unit
(** [start pool tasks] hands [tasks] to the spawned workers and returns
    at once, so the caller can do other work while they run. Tasks are
    split into one chunk per worker (the caller's included), each
    claimed through an atomic cursor; a worker that drains its own chunk
    steals from the others, so a handful of slow tasks cannot idle the
    rest of the pool. Order of execution is unspecified — tasks must be
    independent of each other and of whatever the caller does before
    {!finish}. At most one batch is in flight per pool: raises
    [Invalid_argument] when one already is, or when the pool is shut
    down. The pool keeps that one batch's cursors from {!create} on,
    so a [start]/{!finish} round trip allocates nothing on the calling
    domain. *)

val finish : t -> unit
(** [finish pool] makes the caller claim and run every task of the
    batch in flight that no worker has claimed yet — its own chunk
    first, then the others' — and then waits until the workers have
    finished theirs. Every task runs exactly once, even when some
    raise; the first exception raised is then re-raised here, with its
    backtrace, and the pool stays usable. Raises [Invalid_argument]
    when no batch is in flight. *)

val run_tasks : t -> (unit -> unit) array -> unit
(** [run_tasks pool tasks] is [start pool tasks] then [finish pool]:
    it runs every task to completion across the pool. *)

val shutdown : t -> unit
(** Finishes a batch still in flight (dropping its exception), then
    terminates and joins the worker domains. The pool must not be used
    afterwards. Idempotent. *)
