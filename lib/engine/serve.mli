(** The sharded multicore serving loop behind [rsin serve].

    {!Shard.partition} splits a multi-plane network into independent
    sub-networks; [Serve] runs one warm {!Engine} per shard and spreads
    the shards over an OCaml 5 domain pool
    ({!Rsin_util.Domain_pool}). Because shards share no network element,
    per-shard maximum flows sum to the merged network's maximum flow, so
    the sharded engine allocates {e exactly} what the single-engine
    Dinic would — the differential suite pins this cycle by cycle.

    {2 Pipelined slots}

    Events are consumed in nondecreasing slot order (the JSONL trace
    format [rsin serve] streams from stdin or a socket is already
    sorted). All events of slot [T] are buffered. The first event of a
    later slot [T'] seals the buffer, and {!feed} then
    {ol {- joins the advance already in flight, which brings every
    shard through [T - 1];}
    {- routes the buffered slot-[T] events {e sequentially} —
    translating global processor/resource/element ids to shard-local
    ones, making any borrowing decisions, and feeding each translated
    event to its shard — and fires [event_hook];}
    {- starts the advance of every shard through [T' - 1] on the domain
    pool (work-stealing, {!Rsin_util.Domain_pool.start}) and returns.}}
    The shards then serve slot [T] while the caller parses and feeds
    slot [T']: the paper's scheduler loop, whose requests arriving
    mid-cycle wait for the next cycle. Every routing decision still
    reads shard states that are complete through [T - 1] and is made on
    one domain in trace order — which is why the allocation trajectory
    is identical for every domain count, [--domains 1] included (the
    determinism qcheck pins that too).

    Every function that reads or writes an engine — a sealing {!feed},
    {!snapshot}, {!drain}, {!report}, {!check_accounting} and {!abort}
    — joins the advance in flight first. An exception an engine raises
    on the pool (from [cycle_hook], say) is re-raised by the first of
    them to join it, once; {!abort} drops it, so an instance whose
    engine failed can still be stopped.

    {2 Borrowing}

    When an arrival's home shard has no free resource port, the router
    tries to re-target it to a {e donor} shard instead of letting it
    queue. It asks every other shard {!Engine.headroom}: how many of its
    idle processors a maximum flow could connect to its free ports —
    Transformation 1 with requests = its idle processors and free = its
    free ports — and whether the canonical minimum cut crosses fabric
    links, in which case the donor is fabric-limited and extra load
    would hit contended wires. In the default [Warm] mode each probe is
    a what-if on the donor's own warm network: switch the idle
    processors' source arcs on, augment, read the cut, roll back
    ({!Incremental.headroom}); it answers exactly what a from-scratch
    {!Rsin_core.Transform1} would, and leaves nothing a later cycle or
    checkpoint can see. Each donor is probed at most once per flushed
    slot: routing only pushes events onto shard heaps, so no donor
    changes until the next advance. The donor with the largest headroom
    wins, ties preferring fabric-unlimited donors, then the lowest shard
    index; the arrival is re-issued at the donor's lowest idle
    processor. If no shard has headroom the arrival stays home (and is
    counted as starved). Everything is deterministic, so borrowing does
    not perturb the domains=1 vs domains=N equivalence. *)

type report = {
  domains : int;        (** domain-pool size actually used *)
  shards : int;
  events : int;         (** trace events consumed *)
  borrows : int;        (** arrivals re-targeted to a donor shard *)
  starved : int;        (** exhausted-home arrivals no donor could take *)
  horizon : int;        (** max over shards *)
  arrivals : int;
  allocated : int;
  completed : int;
  cancelled : int;
  expired : int;
  left_pending : int;
  cycles : int;
  skipped_cycles : int;
  solver_work : int;
  faults : int;
  repairs : int;
  victims : int;
  shed : int;           (** arrivals rejected by admission control *)
  given_up : int;       (** victims whose retry budget ran out *)
  retries : int;        (** backoff re-admissions scheduled *)
  quarantines : int;    (** elements quarantined by flap detection *)
  wall_us : float;      (** monotonic create-to-drain wall time *)
  per_shard : Engine.report array;
}
(** Counters are sums over shards unless noted. [wall_us] is real
    elapsed time ({!Rsin_util.Clock}), the quantity the E35 scaling
    bench divides events by. *)

val events_per_sec : report -> float

val pp_report : Format.formatter -> report -> unit

(** The router's task-to-shard map, held in the form the checkpoint
    writes: maximal ascending [(first_id, count, shard)] runs in one
    flat array. Routing ids in ascending order — every generator and
    recorded trace does — extends the newest run in place or appends
    one, allocating only when the array grows; a lookup
    binary-searches the run starts. An id added at or below the newest
    run's last id is kept in a per-id side table that
    {!Task_map.fold_runs} sorts and merges in: an out-of-order id costs
    a table entry and its share of that sort, never a shift of the
    array. *)
module Task_map : sig
  type t

  val create : unit -> t

  val add : t -> int -> int -> unit
  (** [add m id shard]. Raises [Invalid_argument] when [id] is already
      in the map. *)

  val find : t -> int -> int option
  val mem : t -> int -> bool

  val fold_runs : t -> (int -> int -> int -> 'a -> 'a) -> 'a -> 'a
  (** [fold_runs m f init] folds [f first count shard] over the maximal
      runs of consecutive ids on one shard, from the last run to the
      first, so consing in [f] lists them in ascending id order. O(runs)
      when every id was added in ascending order. *)
end

type t

val create :
  ?config:Engine.Config.t ->
  ?domains:int ->
  ?cycle_hook:(shard:int -> Rsin_topology.Network.t -> Engine.cycle_info -> unit) ->
  ?event_hook:(events:int -> time:int -> unit) ->
  Rsin_topology.Network.t ->
  (t, string) result
(** Partitions the network into one shard per connected component and
    starts one engine per shard over a pool of
    [min domains components] domains (default [domains]:
    {!Domain.recommended_domain_count}). The shard layout deliberately
    does {e not} depend on [domains] — only the pool size does — so
    every routing and borrowing decision, and hence the whole allocation
    trajectory, is identical at every domain count. The same validated
    {!Engine.Config.t} is shipped to every shard; [Token] mode is
    rejected ([Error]) — the token protocol is a single-fabric
    architecture. Partitioning errors ({!Shard.partition}) are passed
    through.

    [cycle_hook] is the per-shard {!Engine.create} hook plus the shard
    index; it fires on the domain serving that shard, concurrently with
    other shards' hooks, so it must only touch per-shard state (the
    differential tests give each shard its own log buffer). Since the
    advance runs while the caller is between feeds, the caller may read
    what the hook writes only from [event_hook] or after {!drain}.
    [event_hook] fires on the routing domain once per flushed slot with
    the cumulative event count — the serve heartbeat — after the slot is
    routed and before the next advance starts, so no cycle is in flight
    while it runs. *)

val shard : t -> Shard.t
val n_domains : t -> int

val feed : t -> Rsin_sim.Workload.trace_event -> unit
(** Buffers one trace event; the first event of a later slot first
    routes the buffered slot and starts the next advance (see
    {e Pipelined slots} above). Raises [Invalid_argument] on decreasing
    slot order, an out-of-range processor or fault element, a service
    time below 1, a negative priority, or an arrival whose task id was
    already fed. All of these are checked before the event is buffered,
    so a rejected event leaves the instance unchanged and never costs
    the events buffered beside it. Each check is O(1) for an arrival
    whose id is above every id fed before it; a lower id is looked up
    in the task map and in the slot's buffered ids (indexed once per
    slot, on first need). A cancel is dropped when its task id was
    never fed, or when the arrival it names is buffered behind it in
    the same slot.

    Buffering and routing an arrival or a cancel allocate nothing: the
    slot is buffered in an array reused from slot to slot, an arrival
    is filed into its shard's slab through {!Engine.feed_arrival} with
    its shard-local processor (no re-targeted copy of the event), and
    the shards' advance tasks are built once by {!create}. *)

val drain : t -> unit
(** Flushes the last buffered slot, drains every shard in parallel, and
    shuts the domain pool down. The instance only accepts {!report}
    afterwards. Idempotent. *)

val report : t -> report

val check_accounting : t -> (unit, string) result
(** {!Engine.check_accounting} over every shard: each arrival the
    router fed is in exactly one terminal or pending bucket. The chaos
    soak asserts this after every flushed slot. *)

val abort : t -> unit
(** Crash simulation / emergency stop: waits for the advance in flight
    (dropping its exception), then shuts the domain pool down {e
    without} flushing the buffered slot or draining the shards. The
    instance only accepts {!report} afterwards. Idempotent; used by the
    chaos harness to model a kill between checkpoint and completion. *)

(** {2 Checkpoint / restore}

    A serve snapshot ([rsin-serve-checkpoint/v2]) nests one
    {!Engine.snapshot} per shard plus the router's own state (slot
    cursor, event/borrow/starve counters, and the task-to-shard map
    cancels are chased with). {!snapshot} first flushes the buffered
    slot, so the checkpoint always lands on a slot boundary: every shard
    advanced through [cur_slot - 1], every routed event of [cur_slot] in
    its shard's event heap. Restoring over a pristine instance of the
    same topology and feeding the remaining trace (slots after the
    checkpoint) reproduces the uninterrupted run's trajectory byte for
    byte — the differential test pins this.

    The task-to-shard map is written as [[first_id, count, shard]]
    triples, ascending: one per maximal run of consecutive task ids
    routed to the same shard. Synthetic and recorded traces number
    arrivals slot by slot, so runs are long; in the worst case each run
    holds one id and the document is still smaller than one object per
    id. The router holds the map in that same form ({!Task_map}), so a
    snapshot copies the runs out: O(runs), with no sort and no per-id
    lookup, however many tasks the instance has served. The shard
    snapshots cost what the live load costs: each engine keeps records
    only for its queued, parked and in-flight tasks
    ({!Engine.snapshot}). They are built on the calling domain, one
    after another, so what a checkpoint costs does not hang on when a
    second domain takes up its share; the bytes are the same at every
    domain count. *)

val snapshot : t -> Rsin_util.Json.t
(** Raises [Invalid_argument] after {!drain}/{!abort}. Safe to call
    from [event_hook] (the buffer is already flushed there). Called
    mid-slot, it routes the events buffered so far but starts no
    advance, so the slot's later events still reach shards that have
    not served it. Runs a minor collection ([Gc.minor]) before it
    builds the document, so the document, garbage once printed, is
    not promoted half-built. *)

val restore :
  ?domains:int ->
  ?cycle_hook:(shard:int -> Rsin_topology.Network.t -> Engine.cycle_info -> unit) ->
  ?event_hook:(events:int -> time:int -> unit) ->
  Rsin_topology.Network.t ->
  Rsin_util.Json.t ->
  (t, string) result
(** Rebuilds a serving instance from {!snapshot} output. The network
    must be a pristine copy of the topology the snapshot was taken on
    (checked per shard); the config travels inside the snapshot. Hooks
    and the domain count are re-attached fresh.

    The task-map runs are appended whole, never expanded per id; runs
    a document leaves split but contiguous on one shard are coalesced,
    so restoring and snapshotting again writes maximal runs.

    A malformed document is an [Error], never an exception: another
    schema (a [v1] document included — the message names both), a
    task-map run with a count below 1, runs that are not ascending and
    disjoint, a shard index outside the partition, runs whose counts
    sum past the document's [events], a number that is not an integer
    within ±2{^53} ({!Rsin_util.Json.to_int}), or a [cur_slot] that is
    neither null nor an integer. Every routed arrival is one event, so
    every checkpoint {!snapshot} writes passes the [events] check. The
    document, and each shard's through {!Engine.restore}, decodes under
    {!Rsin_util.Json.Decode}'s rule, and the error names the path to
    the offending value. *)

val run :
  ?config:Engine.Config.t ->
  ?domains:int ->
  ?cycle_hook:(shard:int -> Rsin_topology.Network.t -> Engine.cycle_info -> unit) ->
  ?event_hook:(events:int -> time:int -> unit) ->
  Rsin_topology.Network.t ->
  Rsin_sim.Workload.trace_event list ->
  (report, string) result
(** [create] + [feed] each event of the (time-sorted) trace + [drain] +
    [report]. *)
