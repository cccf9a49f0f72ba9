(** Streaming causal trace analytics.

    A consumer of the typed {!Trace} record stream that reconstructs the
    causal DAG of a run — flow edges ([Net_send] → [Net_deliver] /
    [Net_drop]) between process tracks, span intervals per (pid, lane),
    and detector occurrences with their sense-to-detect windows — and
    answers the questions the raw trace only stores evidence for:

    - {b Critical paths}: per detector occurrence, the longest-latency
      causal chain of sends/delivers/spans that terminated in the
      occurrence, with per-hop attribution split into emit (sense to
      send), transmission (send to deliver), queueing (deliver to
      handler start) and handler time.  Hop latencies are non-negative
      and sum to at most the occurrence window.
    - {b Latency histograms}: log-bucketed (power-of-two octaves with
      four linear sub-buckets, so quantiles resolve within 12.5%)
      per-link delivery latency and per-(span, lane) durations, each a
      fixed int-array histogram in the style of the stamp plane —
      observation is allocation-free after the first sight of a key.
    - {b Queue pressure and loss}: per-kind in-flight high-watermarks
      and drop counts attributed to the (src, dst, kind) link.

    The analyzer is streaming and single-pass: [feed] it records in
    trace order, either post-hoc (a retained sink or a JSONL file via
    {!Import}) or online as a sink tap ([Trace.set_tap]) during a live
    run.  With a [horizon_ns], memory is bounded: a flow edge is retired
    once both endpoints are seen or once the sim-time horizon passes its
    send, so the open-edge window — and the recent-delivery window used
    for critical paths — cannot grow with run length.  Feeding the same
    record stream at the same horizon produces byte-identical [render]
    and [to_json] output whichever mode delivered the records. *)

type t

val create : ?horizon_ns:int -> unit -> t
(** [horizon_ns]: sim-time retirement horizon for unmatched flow edges
    and the recent-delivery window (omitted = unbounded, the post-hoc
    default).  Raises [Invalid_argument] when non-positive.  Critical
    paths are built for process 0's occurrences (the linearizing
    detectors all check there), and the 32 most recent are kept
    verbatim for the report; aggregates cover all. *)

val feed : t -> Trace.record -> unit
(** Consume one record.  Records must arrive in emission order (the
    order [Trace.iter] and the JSONL export preserve). *)

val feed_sink : t -> Trace.sink -> unit
(** [Trace.iter (feed t) sink]. *)

(** {2 Programmatic results} *)

type quantiles = { q50 : int; q90 : int; q99 : int; q_max : int }
(** Latency quantiles in ns.  Quantiles answer the lower bound of the
    log bucket holding the requested rank, so they are deterministic
    and never overstate. *)

val delivery_quantiles : t -> quantiles option
(** Across every link; [None] before the first delivery. *)

type hop = { h_label : string; h_ns : int }

type path = {
  p_seq : int;  (** trace seq of the occurrence record *)
  p_detect_ns : int;
  p_verdict : string;
  p_window_ns : int;
  p_src : int;  (** sender of the trigger chain; -1 when unresolved *)
  p_flow : int;  (** flow id of the trigger message; -1 without a network hop *)
  p_hops : hop list;  (** emit, transmit, queue, handler — in causal order *)
}

val paths : t -> path list
(** The 32 most recent critical paths, oldest first. *)

val occurrences : t -> int
val resolved : t -> int
(** How many occurrences were tied to a concrete trigger message chain. *)

val mean_critical_ns : t -> float
(** Mean critical-path latency (sum of hop latencies) over all
    occurrences; 0 before the first. *)

val open_edges : t -> int
val peak_open_edges : t -> int
val expired_edges : t -> int
(** Unmatched flow edges retired by the horizon. *)

val retired_edges : t -> int
(** Flow edges retired by seeing both endpoints (deliver or drop). *)

(** {2 Streaming-lattice occupancy}

    Aggregated from the [Lattice_commit] records an online detector
    emits at each flush.  All zero when the run carried none. *)

val lattice_commits : t -> int
(** [Lattice_commit] records seen. *)

val lattice_level : t -> int
(** Highest finalized cut level reported. *)

val lattice_committed : t -> int
(** Committed consistent-cut count at the last commit record. *)

val peak_live_cuts : t -> int
(** Widest live slab any commit record reported — the bounded-memory
    evidence, the streaming twin of {!peak_open_edges}. *)

(** {2 Reports} *)

val render : ?top:int -> t -> string
(** Text report: totals, per-link latency table (largest [top] links,
    default 16), span table, per-kind traffic and in-flight watermarks,
    recent critical paths with per-hop attribution, aggregate
    attribution shares, and the analyzer's own memory evidence. *)

val to_json : ?top:int -> t -> string
(** Same content as [render] under schema ["psn-analyze/1"]. *)

(** {2 Sharded-run analysis}

    Post-hoc analysis of the {!Shard_stats} counters a sharded run
    recorded: wall-time attribution (window loop vs. coordinator
    drain/fold vs. unattributed), per-shard load and wait,
    load-imbalance coefficients, and an Amdahl-style projected-speedup
    curve derived from the measured per-window busy profile — serial
    work does not scale, and each window takes at least its critical
    path [max over shards of busy] and at least its total busy time
    divided over the projected core count.  All inputs are host-time
    readings; nothing here touches sim artifacts.

    The engine runs a window's shards one after another on one domain,
    so the measured wall time is the one-core time and the Amdahl curve
    is a projection: what a parallel window loop would have to beat.
    The field names (and the rendered ["parallel"] share) are those of
    the pooled windows the inline loop replaced. *)

type shard_row = {
  sh_events : int;
  sh_busy_ns : int;
  sh_wait_ns : int;
      (** Σ over windows of (window-loop time − this shard's busy
          time): the time the other shards ran. *)
  sh_sent : int;  (** cross-shard messages sent *)
  sh_recv : int;
}

type sharded_report = {
  sr_shards : int;
  sr_lookahead_ns : int;
  sr_windows : int;
  sr_events : int;
  sr_limit_lookahead : int;  (** windows cut by the conservative bound *)
  sr_limit_queue : int;  (** windows after which the queues went quiet *)
  sr_limit_horizon : int;  (** windows clipped by [until] *)
  sr_wall_ns : int;
      (** measured run wall time; the model's T(1) when no run was
          timed (hand-built stats). *)
  sr_par_ns : int;  (** Σ over windows of the window loop's host time *)
  sr_drain_ns : int;
  sr_fold_ns : int;
  sr_other_ns : int;
  sr_busy_ns : int;
  sr_critical_ns : int;
  sr_dispatch_ns : int;
      (** window-loop time not covered by any shard's busy time: the
          loop's own overhead. *)
  sr_parallel_frac : float;
  sr_serial_frac : float;
  sr_imbalance_events : float;
      (** [K · Σ_w max_s events / Σ_w Σ_s events] — 1.0 is perfectly
          balanced, K is one shard doing everything.  Event-based, so
          deterministic for a given seed. *)
  sr_imbalance_busy : float;  (** same shape over busy host-ns *)
  sr_cross_msgs : int;
  sr_pending : int;
  sr_peak_mail_ints : int;
  sr_per_shard : shard_row array;
  sr_amdahl : (int * float) array;
      (** (cores, projected speedup); starts at (1, 1.0) by
          construction. *)
  sr_amdahl_limit : float;  (** the C → ∞ asymptote *)
}

val sharded : Shard_stats.t -> sharded_report

val render_sharded : Shard_stats.t -> string
(** Text report: totals, window-limit classification, wall-time
    attribution, per-shard table, imbalance, Amdahl curve. *)

val sharded_to_json : Shard_stats.t -> string
(** ["psn-shardstats/1"] document: the raw {!Shard_stats.raw_members}
    (so {!Shard_stats.of_json} can re-analyze it) plus the derived
    ["analysis"] object. *)
