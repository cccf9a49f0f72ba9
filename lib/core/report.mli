(** Outcome of one detection run. *)

type shard_info = {
  si_windows : int;  (** barrier rounds of the sharded run *)
  si_per_shard : Psn_obs.Metrics.snapshot array;
      (** each shard's own registry, un-merged *)
}

type t = {
  summary : Psn_detection.Metrics.summary;
  truth : Psn_detection.Ground_truth.interval list;
  occurrences : Psn_detection.Occurrence.t list;
  updates : int;
  messages : int;
  words : int;
  dropped : int;
  sim_events : int;
  horizon : Psn_sim.Sim_time.t;
  metrics : Psn_obs.Metrics.snapshot;
      (** per-layer breakdown of the run's whole metrics registry *)
  sharding : shard_info option;
      (** shard breakdown of a sharded run; [None] on the single
          substrate *)
}

val summary : t -> Psn_detection.Metrics.summary
val truth : t -> Psn_detection.Ground_truth.interval list
val occurrences : t -> Psn_detection.Occurrence.t list
val metrics : t -> Psn_obs.Metrics.snapshot
val words_per_update : t -> float

val core : t -> t
(** The substrate-independent view: [sharding] erased.  The
    differential suites compare [core] reports across substrates —
    window counts and per-shard splits legitimately differ with K
    while everything else must not. *)

val pp : Format.formatter -> t -> unit
(** One-line headline: accuracy summary plus updates, messages, words,
    dropped, and words/update — followed, for sharded runs, by a
    per-shard breakdown (windows, per-shard engine and shardnet
    counters). *)
