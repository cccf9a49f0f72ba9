(** Execution substrate: one workload construction on K per-shard
    engines.

    A shard-aware workload is written once against this interface —
    processes grouped into {e groups}, flat-lane message posts, a global
    delivery handler — and runs on K shards, each owning its own
    {!Engine.t} (event queue, RNG streams, metrics registry); group [g]
    lives on shard [g mod K].  {!single} is the differential oracle: one
    shard run straight through, with no rounds and no mailboxes.
    {!sharded} runs conservative rounds at any K, in the classic PDES
    sense, with one safe horizon per shard.  Each round gives shards
    0 … K−1, in turn, one turn on the calling domain: shard [s] drains
    its own mailboxes into its queue, takes

    {v H_s = (min over r <> s of E_r) + lookahead v}

    where [E_r] is the earliest event pending at shard [r] (queued or in
    a mailbox to [r]), and runs every event strictly below [H_s]; each
    cross-shard post it makes at [at] lowers its running horizon to
    [at + lookahead] ({!Engine.lower_horizon}).  Nothing in a run
    crosses a domain.  [lookahead] must be a guaranteed lower bound on
    cross-shard message delay ({!Delay_model.min_delay} of the
    transport's model).  So while a delivery at [d] is pending anywhere,
    no shard's clock passes [d + lookahead] — the invariant the
    detectors' stamp-plane release relies on.  Cross-shard posts append
    to a per-(src, dst) mailbox ring, which the destination drains at
    its turn in src order, FIFO within each ring; same-shard posts
    schedule directly, exactly as on the single queue.

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
    order in which a round's shards run unobservable, and so what
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
    zero-lookahead delay model offers no conservative horizon. *)

val seed : t -> int64
val shards : t -> int
(** 1 for {!single}. *)

val lookahead : t -> Sim_time.t
(** The lookahead {!sharded} was given; 0 for {!single}. *)

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
    A cross-shard post is scheduled at the destination's next turn.
    Made during {!run} (from an event of [src_group]), it raises
    [Invalid_argument], naming the lookahead, when [at] lies less than
    the lookahead after the poster's clock: the transport sampled a
    delay below the lookahead it promised.  Made between runs, it raises
    when [at] lies before the end of the last round. *)

val run : t -> until:Sim_time.t -> unit
(** Run to [until]; every shard's clock ends exactly there.  {!sharded}
    brackets each turn's two parts as {!Psn_obs.Profile.phase}
    ["sharded.drain"] (its mailbox drain) and ["sharded.window"] (its
    events below its horizon). *)

val events_processed : t -> int
(** Sum over shards. *)

val windows : t -> int
(** Rounds; 0 for {!single}. *)

val merged_metrics : t -> Psn_obs.Metrics.snapshot
(** {!Psn_obs.Metrics.merge_snapshots} of {!shard_snapshots} (the one
    registry's snapshot for {!single}).  Sharded layers register only
    counters and histograms, so every K agrees. *)

val stats : t -> Psn_obs.Shard_stats.t option
(** The run's per-round observability counters: per-shard events and
    busy host time (each turn after its drain), drain and fold time,
    the turns' time ([par_ns]), mailbox traffic, and limit
    classification.  A shard's wait ([par_ns - busy]) is the time the
    other shards ran.  Host-time readings live only here (the
    {!Psn_obs.Profile} quarantine rule): same-seed sim artifacts are
    byte-identical whether or not stats are consumed.  [None] for
    {!single}, which has no rounds to attribute.

    Each round is folded into running totals as it closes, and only
    the first 1024 rounds keep their [8 + 2K + K²]-int row, so the
    stats stay the same size however long the run (128 KB of rows at
    K = 2): a 10^6 s streamed detection at K = 2 runs 578 656 rounds
    and keeps 1024 of them. *)

val shard_snapshots : t -> Psn_obs.Metrics.snapshot array
(** Per-shard registry snapshots — the un-merged view behind
    {!merged_metrics}, for per-shard breakdowns in reports. *)
