(** Discrete-time dynamic simulation of a resource sharing system.

    Implements the operating model of paper Section II: processors
    generate tasks; a processor transmits one task at a time over an
    established circuit; the circuit is released as soon as the task has
    been transmitted (after [transmission_time] slots), while the
    resource stays busy for the task's service time; tasks arriving
    while their processor is transmitting are queued. Every slot the
    scheduler runs one scheduling cycle over the pending requests and
    the free resources (the monitor model: requests arriving mid-cycle
    wait for the next one).

    This drives the data-flow-machine example (Fig. 1(b)) and the
    utilization side of experiment E12. *)

type params = {
  arrival_prob : float;     (** per processor per slot *)
  transmission_time : int;  (** slots a circuit stays established, >= 1 *)
  mean_service : float;     (** mean of the geometric service time, >= 1 *)
  slots : int;              (** measured horizon *)
  warmup : int;             (** slots discarded before measuring *)
}

type scheduler =
  | Optimal
  | First_fit
  | Distributed
      (** the token-propagation architecture runs each scheduling cycle;
          {!metrics.scheduling_clocks} then accumulates its clock
          periods, giving the steady-state hardware scheduling cost *)

type metrics = {
  throughput : float;           (** tasks completed per slot *)
  offered_load : float;         (** tasks arriving per slot *)
  resource_utilization : float;
      (** mean fraction of resources busy: held by a task, through its
          transmission and its service *)
  serving_utilization : float;
      (** mean fraction of resources serving: busy and past the task's
          transmission phase *)
  mean_queue : float;           (** mean tasks queued per processor *)
  mean_wait : float;            (** mean slots from arrival to circuit *)
  completed : int;
  blocked_cycle_fraction : float;
      (** fraction of scheduling cycles that left a satisfiable request
          waiting (a network blockage under the optimal scheduler) *)
  cycles_run : int;
  futile_cycle_fraction : float;
      (** fraction of cycles that allocated nothing at all — the wasted
          work the paper's wait-for-more-requests policy avoids *)
  scheduling_clocks : int;
      (** total clock periods spent by the token architecture across all
          cycles ([Distributed] scheduler only; 0 otherwise) *)
}

val run :
  ?obs:Rsin_obs.Obs.t ->
  ?scheduler:scheduler ->
  ?cycle_threshold:int ->
  ?solver:(module Rsin_flow.Solver.S) ->
  Rsin_util.Prng.t ->
  Rsin_topology.Network.t ->
  params ->
  metrics
(** Simulates [warmup + slots] slots on a scratch copy of the network.

    With [obs], every slot is tagged with a ["sim.slot"] instant event
    (domain clock = slot index, arguments: arrivals, allocations, queue
    depth), [dynamic.*] registry counters accumulate the run totals, and
    the observer is passed down to the scheduler, so one trace file
    shows the workload and the per-cycle scheduling work together.

    [solver] picks the max-flow solver the {!Optimal} scheduler runs
    each cycle (default Dinic); the other schedulers ignore it.

    [cycle_threshold] (default 1) implements the batching policy of the
    paper's Fig. 10 discussion: a scheduling cycle is entered only when
    at least that many requests are pending (and as many resources are
    free, capped by the request count), trading scheduling latency for
    fewer futile cycles. *)
