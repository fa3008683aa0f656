(** Trace-driven packet-mode serving: the paper's Section-II packet
    network, on the real buffered fabric.

    A packet-switched resource-sharing network must bind every task to
    a concrete resource port {e before} injecting (address mapping —
    the network routes by destination, it cannot search), and the
    resource then sits reserved-but-idle until the task's last flit
    arrives. This module reproduces exactly those semantics over
    {!Fabric}: tasks arrive at processors, bind to a uniformly random
    {e unreserved, reachable} resource port when they reach the head
    of their processor's queue, are packetized and injected one flit
    per slot, and the bound resource serves for the task's service
    time once fully assembled. Contrast [Rsin_sim.Dynamic]/the engine,
    which schedule destination-free requests with max-flow and hold
    the resource only for transmission + service.

    Faults ({!Rsin_fault.Fault.apply} events, applied at their slot's
    boundary) propagate through {!Fabric.refresh_health}: tasks whose
    flits are stranded are dropped and their reservation released; a
    resource dying mid-service drops the task it was serving. *)

type task = {
  arrival : int;   (** slot the task joins its processor's queue *)
  proc : int;
  service : int;   (** slots the bound resource serves after assembly, >= 1 *)
  flits : int;     (** packetization, >= 1 *)
}

type report = {
  horizon : int;            (** slots actually simulated *)
  arrivals : int;
  bound : int;              (** tasks that won a reservation and injected *)
  completed : int;
  dropped : int;            (** tasks lost to faults *)
  left_pending : int;       (** unbound + in flight + in service at the end *)
  mean_response : float;    (** arrival → service completion, completed tasks *)
  p95_response : float;
  max_response : int;
  throughput : float;
      (** completions per measured slot, both counted from slot
          [warmup] on *)
  serving_utilization : float;
  reserved_utilization : float;
  reserved_idle : float;
      (** fraction of resource-slots reserved but not serving — the
          address-mapping overhead the paper's Section II argues
          against. Equals reserved - serving utilization. *)
  grants : int;
  conflicts : int;
  injected_flits : int;
  delivered_flits : int;
  dropped_flits : int;
  faults_applied : int;
  repairs_applied : int;
}

val run :
  ?obs:Rsin_obs.Obs.t ->
  ?vq_depth:int ->
  ?warmup:int ->
  ?max_slots:int ->
  ?faults:(int * Rsin_fault.Fault.event) list ->
  arbiter:(module Arbiter.S) ->
  Rsin_util.Prng.t ->
  Rsin_topology.Network.t ->
  task list ->
  report
(** Serves the tasks (any order; sorted internally) until everything is
    resolved or [max_slots] (default 100_000) is hit; [left_pending]
    reports whatever a cutoff stranded. Utilizations and throughput are
    measured from slot [warmup] (default 0) onward. The PRNG drives
    only the binding choice. With [?obs], responses land in the
    [packet.response] histogram and the fabric's own counters are
    registered as documented in {!Fabric}. *)
