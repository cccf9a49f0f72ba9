(** Execution substrate: one workload construction, two engines.

    A shard-aware workload is written once against this interface —
    processes grouped into {e groups}, flat-lane message posts, a global
    delivery handler — and then runs either on a single-queue
    {!Engine.t} (the differential oracle) or on a
    {!Sharded_engine.t} with K shards (groups are mapped onto shards as
    [group mod K]).  Because the construction, the per-entity RNG
    streams, and the delivery times are substrate-independent, a
    same-seed run must produce the same observable results on both —
    the correctness contract the qcheck differential suite enforces.

    Groups exist so the workload's structure does not depend on K: a
    scenario partitions itself into a fixed number of groups (strips of
    a hall, wards of a hospital), and every group's mutable state is
    only ever touched by processes of that group — which the mapping
    places on one shard, making intra-window execution race-free. *)

type t

type handler = Sharded_engine.handler

val single : ?seed:int64 -> unit -> t
(** The single-queue oracle.  Its engine is created with
    [~use_default_obs:false], matching the shards, so substrate choice
    cannot change observability. *)

val sharded : ?seed:int64 -> shards:int -> lookahead:Sim_time.t -> unit -> t
(** Raises like {!Sharded_engine.create} (in particular on
    [lookahead <= 0]). *)

val seed : t -> int64
val shards : t -> int
(** 1 for {!single}. *)

val is_sharded : t -> bool

val engine : t -> group:int -> Engine.t
(** The engine that owns [group]'s processes: the one engine for
    {!single}, shard [group mod K] for {!sharded}.  Group-local setup
    (worlds, clocks, periodic events) must schedule here. *)

val set_handler : t -> handler -> unit
(** Install the global delivery dispatcher (same callback on every
    shard).  It runs on the destination group's domain. *)

val post :
  t -> src_group:int -> dst_group:int -> at:Sim_time.t -> dst:int ->
  w0:int -> w1:int -> w2:int -> w3:int -> w4:int -> w5:int -> w6:int -> unit
(** Deliver lanes to process [dst] at absolute time [at].  On the
    single substrate this schedules directly (through a pooled delivery
    record, like the sharded path), preserving the cost model. *)

val run : t -> until:Sim_time.t -> unit

val events_processed : t -> int
val windows : t -> int
(** Barrier rounds; 0 on the single substrate. *)

val merged_metrics : t -> Psn_obs.Metrics.snapshot
(** Registry snapshot of the run: the one registry for {!single},
    {!Psn_obs.Metrics.merge_snapshots} of the shard registries for
    {!sharded}.  Sharded layers register only counters and histograms,
    so the two agree. *)

val stats : t -> Psn_obs.Shard_stats.t option
(** The sharded engine's per-window observability counters
    ({!Sharded_engine.stats}); [None] on the single substrate, which
    has no windows or barriers to attribute. *)

val shard_snapshots : t -> Psn_obs.Metrics.snapshot array
(** Per-shard registry snapshots (a one-element array for {!single}) —
    the un-merged view behind {!merged_metrics}, for per-shard
    breakdowns in reports. *)
