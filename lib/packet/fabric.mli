(** Buffered packet-switched fabric over a circuit-switched topology.

    The same {!Rsin_topology.Network.t} the flow schedulers compile,
    operated packet-switched: requests are packetized into fixed-size
    flits, every switchbox holds one virtual output queue (VOQ) per
    {e (input port, output port)} pair, and each cycle a per-box
    {!Arbiter} computes a conflict-free matching over the VOQ heads.
    VOQs remove head-of-line blocking; bounded VOQ depth plus credit
    checks (a grant requires space in the downstream VOQ) give
    lossless backpressure.

    One {!step} is one slot of the engine clock:

    + stages are served {e downstream first}, so space freed by a
      later stage is visible to earlier stages in the same cycle while
      every flit still advances at most one hop per cycle;
    + per box: eligible VOQ heads (output link usable, downstream VOQ
      has room) form the request matrix, the arbiter matches, granted
      flits move — onto the resource (delivery) or into the next box's
      VOQ chosen among the destination's candidate ports by lowest
      occupancy (multipath load balancing on gamma/ADM/Clos/extra-stage
      networks);
    + finally each processor injects at most one flit from its entry
      queue into its stage-0 box.

    Health ({!Rsin_topology.Network.usable}) is honored throughout:
    down elements carry no flits, and {!refresh_health} (call it after
    {!Rsin_fault.Fault.apply}) rebuilds the routing table and
    re-routes flits queued toward a dead port onto a surviving
    candidate — or drops the task when none is left.

    With [?obs], the fabric registers per-box grant and conflict
    counters ([packet.box<i>.grants] / [.conflicts]), fabric-wide
    totals, a per-cycle buffer-occupancy histogram
    ([packet.voq_occupancy]) and the end-to-end task delay histogram
    ([packet.delay]) — all exported through the PR6 Metrics /
    Prometheus path. *)

type t

type event =
  | Delivered of { task : int; dest : int }
      (** The task's last flit reached its resource port this cycle. *)
  | Dropped of { task : int; dest : int }
      (** A flit of the task was dropped (destination unreachable after
          a fault); the task will never complete and its remaining
          flits are discarded. Emitted once per task. *)

type stats = {
  offered_flits : int;    (** entered an entry queue via {!offer} *)
  injected_flits : int;   (** moved from an entry queue into a stage-0 VOQ *)
  delivered_flits : int;
  dropped_flits : int;
  grants : int;           (** arbitration grants, all boxes *)
  conflicts : int;        (** inputs with an eligible request left ungranted *)
  delivered_tasks : int;
  dropped_tasks : int;
  buffered_flits : int;   (** currently in VOQs *)
  entry_flits : int;      (** currently in processor entry queues *)
}

val create :
  ?obs:Rsin_obs.Obs.t ->
  ?vq_depth:int ->
  arbiter:(module Arbiter.S) ->
  Rsin_topology.Network.t ->
  t
(** A fresh fabric over the network as it is now (health included). Each
    box gets its own arbiter instance from the module. [vq_depth] is
    the per-VOQ capacity in flits; omitted = unbounded. Raises
    [Invalid_argument] on [vq_depth < 1]. *)

val routing : t -> Routing.t
val now : t -> int
(** Cycles stepped so far. *)

val offer : t -> proc:int -> task:int -> dest:int -> flits:int -> unit
(** Queues a [flits]-flit task for resource port [dest] at the
    processor's entry queue (unbounded — admission control is the
    caller's policy). Task ids must be fresh; [flits >= 1]. If [dest]
    is unreachable from [proc] on the current routing table the task is
    dropped at its injection attempt. *)

val step : t -> event list
(** Advances one cycle and returns this cycle's completions and drops,
    in occurrence order. *)

val refresh_health : t -> event list
(** Rebuilds the routing table from current element health and walks
    every queue: flits whose queued output port no longer reaches
    their destination are moved to a surviving candidate VOQ with
    space, else their task is dropped (returned, in queue order). Call
    after flipping health flags. *)

val stats : t -> stats

val entry_backlog : t -> int -> int
(** Flits still queued at the processor's entry (not yet injected). *)

val in_flight : t -> int
(** [buffered_flits + entry_flits]: flits offered but neither delivered
    nor dropped. *)
