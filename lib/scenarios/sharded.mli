(** Shard-aware scenario workloads over {!Psn_sim.Exec}.

    Substrate-invariant restatements of the exhibition hall, banking,
    and hospital scenarios: processes are partitioned into a fixed
    number of groups, sense events run on their group's engine from
    per-entity RNG streams, and detection runs on the
    {!Psn_detection.Sharded_detector} hold-back checker.  The hall and
    banking schedule every sense event before the run; calm, stream and
    hospital keep one pending sense event per entity, which schedules
    its successor when it fires, in the same order.  Running the
    same configuration and seed on {!Psn_sim.Exec.single} and on
    {!Psn_sim.Exec.sharded} with any shard count must produce equal
    reports — the property the differential suite checks.

    Each run function scores through the same pipeline as
    {!Psn.Runner.run} (ground-truth intervals over the merged update
    stream, tolerance-scored occurrences) and fills every
    {!Psn.Report.t} field, including merged metrics and transport
    costs. *)

type detect_cfg = {
  groups : int;              (** fixed partition, independent of shard count *)
  eps : Psn_sim.Sim_time.t;  (** physical clock sync bound *)
  hold : Psn_sim.Sim_time.t; (** checker hold-back *)
  flush_period : Psn_sim.Sim_time.t;
  delay : Psn_sim.Delay_model.t;
  loss : Psn_sim.Loss_model.t;
  horizon : Psn_sim.Sim_time.t;
  tolerance : Psn_sim.Sim_time.t; (** scoring tolerance *)
  causal_stamps : bool;      (** per-group stamp planes + causal frontier *)
  checker : Psn_detection.Sharded_detector.checker;
      (** predicate-evaluation backend; [Compiled] in {!default_detect} *)
}

val default_detect : detect_cfg

(** {2 Exhibition hall} — [doors] badge sensors in group strips,
    occupancy predicate Σ (xᵢ − yᵢ) > capacity, visitors walking on
    precomputed itineraries.  The headline scaling workload at
    [doors >= 1000]. *)

type hall_cfg = {
  doors : int;
  capacity : int;
  visitors : int;
  dwell_mean : float; (** mean seconds per stay, each side of the doors *)
  detect : detect_cfg;
}

val hall_default : hall_cfg
val hall_predicate : hall_cfg -> Psn_predicates.Expr.t

val hall :
  ?cfg:hall_cfg -> ?sinks:Psn_obs.Trace.sink array -> Psn_sim.Exec.t ->
  Psn.Report.t

(** {2 Banking} — teller terminals pulsing [busy] around sessions;
    alarm when at least [quorum] are busy at once. *)

type banking_cfg = {
  tellers : int;
  quorum : int;
  sessions_per_hour : float;
  session_mean : float;
  detect : detect_cfg;
}

val banking_default : banking_cfg

val banking :
  ?cfg:banking_cfg -> ?sinks:Psn_obs.Trace.sink array -> Psn_sim.Exec.t ->
  Psn.Report.t

(** {2 Calm} — the conjunctive workload: monitors random-walk a load
    value (downward drift, rare spikes) and the predicate is
    ∧ᵢ (loadᵢ <= limit), which the [Compiled] checker answers from its
    conjunct count.  A rising edge is "every monitor calm again". *)

type calm_cfg = {
  monitors : int;
  limit : int;
  sample_period : float;
  detect : detect_cfg;
}

val calm_default : calm_cfg
val calm_predicate : calm_cfg -> Psn_predicates.Expr.t

val calm :
  ?cfg:calm_cfg -> ?sinks:Psn_obs.Trace.sink array -> Psn_sim.Exec.t ->
  Psn.Report.t

(** {2 Streamed modal detection} — the calm walk scored through the
    streaming frontier lattice ({!Psn_detection.Streaming_detector})
    instead of the hold-back consensus checker: online
    Possibly/Definitely verdicts plus the slab-occupancy evidence.
    Monitor counts stay small (the cut lattice is exponential in
    concurrency); same-seed runs are substrate-invariant across
    {!Psn_sim.Exec.single} and any shard count. *)

type stream_cfg = {
  s_monitors : int;
  s_limit : int;
  s_sample_period : float;
  s_cap : int;  (** live-slab width bound handed to the walk *)
  s_detect : detect_cfg;
}

val stream_default : stream_cfg
val stream_predicate : stream_cfg -> Psn_predicates.Expr.t

type stream_result = {
  sr_possibly : bool option;
  sr_definitely : bool option;
  sr_committed : Psn_lattice.Packed.verdict;
  sr_observed : int;
  sr_updates : int;
  sr_edges : Psn_detection.Streaming_detector.edge list;
  sr_peak_live_cuts : int;
  sr_peak_live_events : int;
  sr_messages : int;
  sr_dropped : int;
}

val stream :
  ?cfg:stream_cfg ->
  ?sinks:Psn_obs.Trace.sink array ->
  ?on_observe:(pid:int -> stamp:int array -> unit) ->
  Psn_sim.Exec.t ->
  stream_result * Psn_detection.Streaming_detector.t
(** Runs to the horizon, finishes the walk, and returns the verdicts,
    counts, edges, and occupancy evidence alongside the detector (for
    the walk, transport, and merged-trace accessors). *)

(** {2 Hospital} — ward monitors sampling a bounded vital-sign walk;
    alarm when the ward average is elevated. *)

type hospital_cfg = {
  wards : int;
  sample_period : float;
  threshold : int;
  detect : detect_cfg;
}

val hospital :
  ?cfg:hospital_cfg -> ?sinks:Psn_obs.Trace.sink array -> Psn_sim.Exec.t ->
  Psn.Report.t
