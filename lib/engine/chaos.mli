(** The chaos soak harness behind [rsin chaos].

    Each topology is driven through four hostile phases, with the
    {!Engine.check_accounting} conservation invariant — every arrival in
    exactly one terminal or pending bucket — asserted after {e every}
    flushed slot, not just at the end:

    {ol
    {- {b Fault storm}: a seeded MTBF/MTTR renewal process over every
       link, box and resource port, woven into an overloading workload
       (tight guard queue bound, small retry budget, aggressive flap
       detector), served through the sharded engine for thousands of
       slots.}
    {- {b Kill/restore}: the same run killed mid-trace — checkpoint
       through the JSON codec's actual bytes, {!Serve.abort}, then
       {!Serve.restore} over a pristine network and feed the rest. The
       per-shard allocation trajectory (every cycle's slot, count and
       mapping) must be byte-identical to the uninterrupted run, and all
       final counters must agree.}
    {- {b Stream robustness}: a JSONL rendering of the trace corrupted
       with garbage lines, truncated objects, unknown kinds and a
       mid-line disconnect, fed through the lenient parser — every bad
       line dropped with a positioned error, everything else served.}
    {- {b Token soak} (single-fabric topologies): the distributed token
       protocol under clocked faults striking mid-cycle.}}

    Everything is seeded and deterministic; a violation anywhere
    surfaces as [Error] naming the topology, phase and bucket sums. *)

type outcome = {
  topology : string;
  slots : int;
  events : int;             (** storm-trace events served *)
  stream_errors : int;
      (** corrupted lines dropped by the lenient parser, plus well-formed
          events [Serve.feed] refused *)
  checks : int;             (** accounting assertions that ran (all held) *)
  faults : int;
  victims : int;
  shed : int;
  given_up : int;
  retries : int;
  quarantines : int;
  arrivals : int;
  completed : int;
  baseline_completed : int; (** same workload, fault-free, same guard *)
  throughput_retained : float;
      (** completed under the storm / completed fault-free — the
          degradation figure the ROADMAP's robustness item tracks *)
  restore_identical : bool; (** always true in an [Ok] outcome *)
  token_soak : bool;        (** token phase ran (single-fabric nets only) *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val run_topology :
  seed:int ->
  slots:int ->
  name:string ->
  Rsin_topology.Network.t ->
  (outcome, string) result
(** All phases over one topology. [slots] sizes the storm phases; the
    token soak runs [slots / 4], the kill lands at [slots / 2]. *)

val run :
  ?quick:bool -> ?seed:int -> ?slots:int -> unit -> (outcome list, string) result
(** The full soak over the default topology set (omega-8, a Clos, and a
    two-plane omega whose shards exercise the sharded checkpoint).
    [slots] defaults to 2500 — thousands of scheduling cycles per
    topology — or 300 with [~quick:true] (the CI smoke setting). *)

val report_json : outcome list -> Rsin_util.Json.t
(** The [rsin chaos --report] document:
    [{"schema":"rsin-chaos-report/v1","topologies":[...]}] with one
    entry per outcome, including [throughput_retained]. *)
