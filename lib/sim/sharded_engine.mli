(** Sharded discrete-event engine with conservative window
    synchronization.

    Processes are partitioned into [shards] shards, each owning its own
    {!Engine.t} — event queue, RNG streams, metrics registry — so a
    window of simulated time can execute on the
    {!Psn_util.Parallel} domain pool with no shared mutable state.
    Synchronization is conservative, in the classic PDES sense: the
    coordinator repeatedly computes the global safe horizon

    {v window_end = (min over shards of next event time) + lookahead v}

    and lets every shard drain events strictly below it in parallel.
    [lookahead] must be a guaranteed lower bound on cross-shard message
    delay ({!Delay_model.min_delay} of the transport's model): any
    message sent at time [t] inside the window arrives at
    [t + delay >= window_start + lookahead = window_end], i.e. outside
    the window, so no shard can receive an event for its past.

    Cross-shard sends do not touch the destination queue mid-window:
    they append to a per-(src, dst) {e mailbox ring} — a flat [int]
    buffer, no per-message allocation — which the coordinator drains in
    deterministic (src-major, dst-minor, FIFO) order at the window
    barrier.  Same-shard sends schedule directly, exactly as on a
    single-queue engine.  Payloads are [lanes] integer words handed to
    the destination shard's {!handler}; delivery closures come from a
    per-shard pool, so steady-state delivery allocates nothing.

    Determinism: shard assignment is the caller's (fixed) mapping,
    mailbox drain order is fixed, and each shard's engine is seeded from
    [(seed, shard)] — so a run is a pure function of the seed, whatever
    the domain count ([PSN_DOMAINS=1] included). *)

type t

type handler =
  dst:int ->
  w0:int -> w1:int -> w2:int -> w3:int -> w4:int -> w5:int -> w6:int -> unit
(** Delivery callback of one shard: [dst] is the destination process id,
    [w0..w6] the payload lanes.  Runs on the destination shard's domain
    with that shard's engine clock at the delivery time. *)

val lanes : int
(** Payload lanes per message (7). *)

val create : ?seed:int64 -> shards:int -> lookahead:Sim_time.t -> unit -> t
(** Raises [Invalid_argument] when [shards < 1] — or when
    [lookahead <= 0]: a zero-lookahead delay model (one whose
    {!Delay_model.min_delay} is zero) offers no conservative window and
    cannot drive a sharded run. *)

val shards : t -> int

val engine : t -> int -> Engine.t
(** The shard's own engine.  Created with [~use_default_obs:false]:
    process-wide default sinks are not domain-safe, so shards never pick
    them up. *)

val set_handler : t -> shard:int -> handler -> unit

val post :
  t -> src_shard:int -> dst_shard:int -> at:Sim_time.t -> dst:int ->
  w0:int -> w1:int -> w2:int -> w3:int -> w4:int -> w5:int -> w6:int -> unit
(** Deliver lanes [w0..w6] to process [dst] of [dst_shard] at absolute
    time [at].  Same-shard posts schedule directly; cross-shard posts go
    to the mailbox ring and are scheduled at the next barrier, where
    [at < window_end] raises (a lookahead violation: the transport
    sampled a delay below the lookahead bound it promised). *)

val run : t -> until:Sim_time.t -> unit
(** Execute windows until every shard's queue is past [until]; every
    shard's clock ends exactly at [until].  Windows run on the
    {!Psn_util.Parallel} pool (the calling domain participates; with one
    domain the loop degrades to sequential round-robin with identical
    results). *)

val now : t -> Sim_time.t
(** The synchronized clock: shards agree on it between windows. *)

val windows : t -> int
(** Barrier rounds executed so far. *)

val events_processed : t -> int
(** Sum over shards. *)

val merged_metrics : t -> Psn_obs.Metrics.snapshot
(** {!Psn_obs.Metrics.merge_snapshots} of the per-shard registries. *)

val stats : t -> Psn_obs.Shard_stats.t
(** The run's per-window observability counters: per-shard events and
    busy host time, coordinator drain/fold time, mailbox traffic, and
    window-limit classification, recorded at every barrier.  Host-time
    readings live only here (the {!Psn_obs.Profile} quarantine rule):
    same-seed sim artifacts — traces, metrics, reports — are
    byte-identical whether or not stats are consumed.  [run] also
    brackets its phases as {!Psn_obs.Profile.phase} ["sharded.drain"]
    / ["sharded.window"], so [psn-sim profile] works on sharded
    scenarios. *)
