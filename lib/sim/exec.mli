(** Execution substrate: one workload construction on K per-shard
    engines.

    A shard-aware workload is written once against this interface —
    processes grouped into {e groups}, flat-lane message posts, a global
    delivery handler — and runs on K shards, each owning its own
    {!Engine.t} (event queue, RNG streams, metrics registry); group [g]
    lives on shard [g mod K].  {!single} is the differential oracle: one
    shard run straight through, with no windows and no mailboxes.
    {!sharded} runs conservative windows at any K, in the classic PDES
    sense: the coordinator repeatedly computes the global safe horizon

    {v window_end = (min over shards of next event time) + lookahead v}

    and lets every shard, in turn, drain events strictly below it.
    Windows run inline on the calling domain, shards 0 … K−1 in a plain
    loop: nothing in a run crosses a domain.  [lookahead] must be a
    guaranteed lower bound on cross-shard message delay
    ({!Delay_model.min_delay} of the transport's model), so a message
    sent inside a window arrives at or past its end.  Cross-shard posts
    append to a per-(src, dst) mailbox ring, drained into the
    destination queues at the window barrier in src-major, dst-minor,
    FIFO order; same-shard posts schedule directly, exactly as on the
    single queue.

    Because the construction, the per-entity RNG streams, and the
    delivery times are substrate-independent, a same-seed run must
    produce the same observable results on {!single} and on {!sharded}
    at any K — the correctness contract the qcheck differential suite
    enforces.

    Groups exist so the workload's structure does not depend on K: a
    scenario partitions itself into a fixed number of groups (strips of
    a hall, wards of a hospital), and every group's mutable state is
    only ever touched by processes of that group — which the mapping
    places on one shard.  That group-locality rule is what makes the
    order in which a window's shards run unobservable, and so what
    carries substrate invariance. *)

type t

type handler =
  dst:int ->
  w0:int -> w1:int -> w2:int -> w3:int -> w4:int -> w5:int -> w6:int -> unit
(** Delivery callback: [dst] is the destination process id, [w0..w6]
    the payload lanes.  Runs with the destination shard's engine clock
    at the delivery time. *)

val single : ?seed:int64 -> unit -> t
(** The single-queue oracle: one shard, run straight through. *)

val sharded : ?seed:int64 -> shards:int -> lookahead:Sim_time.t -> unit -> t
(** Raises [Invalid_argument] when [shards < 1] or [lookahead <= 0]: a
    zero-lookahead delay model offers no conservative window. *)

val seed : t -> int64
val shards : t -> int
(** 1 for {!single}. *)

val is_sharded : t -> bool
(** [false] exactly for {!single}. *)

val engine : t -> group:int -> Engine.t
(** The engine that owns [group]'s processes: shard [group mod K].
    Group-local setup (worlds, clocks, periodic events) must schedule
    here.  Every shard engine is created with [~use_default_obs:false]:
    the substrate choice must not change observability. *)

val set_handler : t -> handler -> unit
(** Install the global delivery dispatcher (same callback on every
    shard). *)

val post :
  t -> src_group:int -> dst_group:int -> at:Sim_time.t -> dst:int ->
  w0:int -> w1:int -> w2:int -> w3:int -> w4:int -> w5:int -> w6:int -> unit
(** Deliver lanes to process [dst] at absolute time [at], through a
    pooled delivery record, so steady-state delivery allocates nothing.
    A cross-shard post is scheduled at the next barrier, where {!run}
    raises [Invalid_argument] if [at] lies inside the window just run
    (a lookahead violation: the transport sampled a delay below the
    lookahead it promised). *)

val run : t -> until:Sim_time.t -> unit
(** Run to [until]; every shard's clock ends exactly there.  {!sharded}
    brackets its phases as {!Psn_obs.Profile.phase} ["sharded.drain"]
    (the barrier) / ["sharded.window"] (the inline window loop). *)

val events_processed : t -> int
(** Sum over shards. *)

val windows : t -> int
(** Barrier rounds; 0 for {!single}. *)

val merged_metrics : t -> Psn_obs.Metrics.snapshot
(** {!Psn_obs.Metrics.merge_snapshots} of {!shard_snapshots} (the one
    registry's snapshot for {!single}).  Sharded layers register only
    counters and histograms, so every K agrees. *)

val stats : t -> Psn_obs.Shard_stats.t option
(** The run's per-window observability counters: per-shard events and
    busy host time (each shard's turn in the window loop), coordinator
    drain/fold time, the window loop's time ([par_ns]), mailbox
    traffic, and window-limit classification, recorded at every
    barrier.  With inline windows a shard's wait ([par_ns - busy]) is
    the time the other shards ran, and dispatch ([par_ns - Σ busy]) is
    the loop's own overhead.  Host-time
    readings live only here (the {!Psn_obs.Profile} quarantine rule):
    same-seed sim artifacts are byte-identical whether or not stats are
    consumed.  [None] for {!single}, which has no windows or barriers to
    attribute. *)

val shard_snapshots : t -> Psn_obs.Metrics.snapshot array
(** Per-shard registry snapshots — the un-merged view behind
    {!merged_metrics}, for per-shard breakdowns in reports. *)
