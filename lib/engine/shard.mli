(** Network partitioning for the sharded multicore engine.

    The paper's fabrics decompose structurally: a multi-plane network
    ({!Rsin_topology.Builders.multiplane} — striped Omega planes, Clos
    replicas, …) is a disjoint union of independent sub-networks, and
    the maximum allocation on a disjoint union is exactly the sum of the
    per-component maxima (no augmenting path crosses components because
    no link does). [Shard.partition] makes that structure explicit: it
    finds the connected components of the link graph with a union–find
    pass and rebuilds each component as a standalone
    {!Rsin_topology.Network.t} with local index spaces plus the
    local↔global maps the serving engine needs to route events in and
    merge reports out.

    Because components are never split, running one warm
    {!Engine}/{!Incremental} instance per shard is {e exact}, not an
    approximation — the differential suite asserts Σ per-shard
    allocations equals single-engine Dinic on the merged network, cycle
    by cycle. A fully connected network (a single Clos, one Omega
    plane) is one component: it still partitions, into a single shard,
    and serving degrades gracefully to the single-core engine. *)

type part = private {
  net : Rsin_topology.Network.t;  (** standalone sub-network, empty/all-up *)
  procs : int array;  (** local processor -> global processor *)
  ress : int array;   (** local resource port -> global resource port *)
  boxes : int array;  (** local box -> global box *)
  links : int array;  (** local link -> global link *)
}
(** One shard: a rebuilt sub-network whose element [i] corresponds to
    global element [procs.(i)] (resp. [ress]/[boxes]/[links]) of the
    partitioned network. Local orderings are ascending in the global
    ids, so shard extraction is deterministic. *)

type t = private {
  base : Rsin_topology.Network.t;  (** the merged network, not copied *)
  parts : part array;
  shard_of_proc : int array;  (** global processor -> shard index *)
  shard_of_res : int array;   (** global resource port -> shard index *)
  local_proc : int array;     (** global processor -> local index in its shard *)
  local_res : int array;      (** global resource port -> local index *)
}

val partition : Rsin_topology.Network.t -> (t, string) result
(** [partition net] splits [net] into one part per connected component,
    ordered by smallest processor id. Errors (never raises) when [net]
    carries live circuits, when a component has processors but no
    resource ports (or vice versa), or when a component's boxes do not
    span every stage — any of which would make the extracted sub-network
    ill-formed. Down elements of [net] are mirrored into the shard
    networks. *)

val n_shards : t -> int

val components : Rsin_topology.Network.t -> int
(** Number of connected components of the link graph — the maximum
    useful shard count for the network. *)

val pp : Format.formatter -> t -> unit
(** One line per shard: [shard 2: multi4-omega8[2] 8p 8r]. *)
