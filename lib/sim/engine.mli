(** Deterministic discrete-event simulation engine.

    Simultaneous events fire in scheduling order; all randomness comes from
    the engine's seeded generator. *)

type t
type handle

val create :
  ?seed:int64 ->
  ?tracer:Psn_obs.Trace.sink ->
  ?timeline:Psn_obs.Metrics.timeline ->
  ?use_default_obs:bool ->
  unit -> t
(** When [tracer] is omitted, the calling domain's
    [Psn_obs.Trace.default] sink (if any) is picked up, so deeply nested
    engine creations trace without plumbing; likewise [timeline] falls
    back to [Psn_obs.Metrics.default_timeline].  With a timeline in play
    the engine registers an [engine.queue_depth] gauge and snapshots its
    registry every [timeline_period_ns] of simulated time, stopping when
    the rest of the queue drains (so [run] without a horizon still
    terminates).

    [use_default_obs] (default [true]) controls that pickup: the shards
    of an {!Exec} pass [false], because the choice of substrate must not
    change what a run observes — a sharded workload traces through its
    own per-group sinks, on the single queue and at any K alike. *)

val now : t -> Sim_time.t
val rng : t -> Psn_util.Rng.t

val tracer : t -> Psn_obs.Trace.sink option
val timeline : t -> Psn_obs.Metrics.timeline option

val metrics : t -> Psn_obs.Metrics.t
(** Per-run metrics registry; instrumented layers register their counters
    here so one snapshot covers the whole stack. *)

val scenario_rng : t -> Psn_util.Rng.t
(** Independent stream for world/scenario randomness: protocol-side draws
    from [rng] cannot perturb the world, so a seed fixes the world across
    clock kinds. *)

val events_processed : t -> int
val pending : t -> int

val next_time_ns : t -> int
(** Time key of the earliest pending event; [max_int] when the queue is
    empty.  The conservative window computation reads this per shard. *)

val schedule_at : t -> Sim_time.t -> (unit -> unit) -> handle
(** Raises if the time is before [now]. *)

val schedule_after : t -> Sim_time.t -> (unit -> unit) -> handle

val schedule_at_unit : t -> Sim_time.t -> (unit -> unit) -> unit
(** Fire-and-forget fast path: like [schedule_at] but without allocating
    a cancellation handle — the event cannot be cancelled and is not
    individually observable before it fires.  Semantics are otherwise
    identical (same FIFO tie-break seq space, same scheduled/fired
    metrics and trace events), so [ignore (schedule_at t at f)] and
    [schedule_at_unit t at f] produce byte-identical runs.  Use it for
    every event whose handle would be ignored: message deliveries,
    detector flushes, world ticks.  Raises if the time is before [now]. *)

val schedule_after_unit : t -> Sim_time.t -> (unit -> unit) -> unit
(** [schedule_at_unit] at [now + delay]; raises on negative delay. *)

val schedule_ranked_unit :
  t -> Sim_time.t -> rank:int -> (unit -> unit) -> unit
(** [schedule_at_unit] with another tie-break: the event runs before
    every equal-time event the other functions scheduled, whenever
    either was scheduled, and equal-time ranked events run in increasing
    [rank].  A generator that keeps one pending event per entity, ranked
    by the entity's index, thus fires in the order that scheduling all
    its events up front, entity by entity, would give.  At most one
    pending event per rank and time; raises if the time is before [now]
    or [rank] is negative. *)

val cancel : handle -> unit
(** Cancelling a pending event marks it and counts it in the
    [engine.cancelled] metric; the closure is skipped when its slot pops.
    Cancelling a handle whose event already fired — or was already
    cancelled — is a no-op, so the metric counts real cancellations
    only. *)

val cancelled : handle -> bool
(** [true] only when [cancel] took effect before the event fired. *)

val step : t -> bool
(** Process one event; [false] when the queue is empty. *)

val run : ?until:Sim_time.t -> t -> unit
(** Process events until the queue empties or the horizon is passed. When a
    horizon is given the clock always ends at it — at the lowered one,
    when an event called {!lower_horizon}. *)

val lower_horizon : t -> Sim_time.t -> unit
(** Called from an event inside [run ~until]: stop the run after the
    events at or before the given time instead, if that is earlier than
    its current horizon.  The drain loop reads the horizon before every
    event, so the lowered one takes effect at the next event.  {!Exec}
    uses it to keep a shard's turn below the time another shard could
    answer one of its cross-shard messages.  Outside [run] the call has
    no lasting effect: every [run] sets its own horizon. *)

val schedule_periodic :
  ?until:Sim_time.t -> t -> start:Sim_time.t -> period:Sim_time.t ->
  (unit -> bool) -> handle
(** Fire repeatedly from [start] every [period] until the callback returns
    [false], the horizon passes, or the handle is cancelled. *)
