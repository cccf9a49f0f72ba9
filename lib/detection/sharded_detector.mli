(** Hold-back consensus checker over an {!Psn_sim.Exec} substrate.

    The sharded counterpart of the physical-clock linearizer: [n] sensor
    processes (pids [0 .. n-1]) stamp their local-variable updates with
    synced physical clocks and unicast them over a {!Psn_network.Shard_net}
    to a checker process (pid [n], always group 0 / shard 0).  The
    checker buffers arrivals and, at each flush (armed by arrivals on
    the [flush_period] grid by the {!Holdback} front end it shares with
    {!Streaming_detector}), applies every update held back for at least
    [hold], in (stamp, src, seq) order — a total order computed from
    substrate-invariant keys, so the applied sequence (and with it every
    occurrence) is identical on the single-queue oracle and on any shard
    count, whatever equal-time arrival interleaving the window barrier
    produced.  An occurrence is [Borderline] when its trigger's stamp is
    within [2 * eps] of an adjacent applied update from another process
    (the paper's race bin), [Positive] otherwise.

    Per-shard stamp planes: with [causal_stamps] on, every source
    additionally runs a vector clock whose stamps bump-allocate in its
    {e group's} {!Psn_clocks.Stamp_plane} arena — each shard owns its
    planes, writes are group-local, and the checker merges received
    handles across planes into a causal frontier at delivery.  The
    frontier is a commutative max-merge, hence substrate-invariant;
    tests compare it verbatim. *)

type t

(** Checker backend — same report, same occurrences, same trace bytes
    on either choice; only the evaluation cost model differs.  Both
    evaluate the whole predicate on the checker (shard 0).

    - [Interp]: Hashtbl env + {!Psn_predicates.Expr.eval_bool} per
      applied update.  The differential oracle.
    - [Compiled] (default): one {!Psn_predicates.Compiled} program over
      int slots.  Works for any predicate; O(1) per update for a linear
      comparison such as the hall's sum, and for a conjunction whose
      updated conjuncts are O(1), such as calm's ∧ᵢ loadᵢ <= limit. *)
type checker = Interp | Compiled

type cfg = {
  n : int;                       (* sensor pids 0 .. n-1; checker is pid n *)
  groups : int;
  group_of : int -> int;         (* sensor pid -> group; checker maps to 0 *)
  eps : Psn_sim.Sim_time.t;      (* clock sync bound *)
  hold : Psn_sim.Sim_time.t;     (* checker hold-back *)
  flush_period : Psn_sim.Sim_time.t;
  causal_stamps : bool;
}

val create :
  ?loss:Psn_sim.Loss_model.t ->
  ?sinks:Psn_obs.Trace.sink array ->
  ?checker:checker ->
  Psn_sim.Exec.t -> cfg:cfg -> delay:Psn_sim.Delay_model.t ->
  predicate:Psn_predicates.Expr.t -> unit -> t
(** Builds the {!Holdback} front end (transport ["detector"], counter
    [sharded_detector.updates]; raises as {!Holdback.create}), the
    per-group planes, and the checker backend.  [sinks] (one per group)
    additionally trace updates, occurrences, and the transport's
    send/deliver/drop records.  [checker] defaults to [Compiled].
    Construction is wrapped in a [Profile.phase "detector.setup"]. *)

val emit : t -> src:int -> var:string -> value:int -> unit
(** Called from a sense event executing on [src]'s group engine: stamps
    the update and sends it to the checker through {!Holdback.admit} and
    {!Holdback.send}.  Each source may use at most four distinct
    variable names (the name index rides in the payload's low bits
    rather than a string on the wire); a fifth raises
    [Invalid_argument], as does [src] outside [0 .. n-1]. *)

val net : t -> Psn_network.Shard_net.t

val updates : t -> Observation.update list
(** Every update emitted, merged across groups in (sense_time, src, seq)
    order — the ground-truth stream. *)

val occurrences : t -> Occurrence.t list

val frontier : t -> int array option
(** With [causal_stamps]: the checker's merged vector frontier
    (width [n + 1]; component [n] counts checker merges). *)

val plane : t -> group:int -> Psn_clocks.Stamp_plane.t option
(** The group's stamp arena (with [causal_stamps]). *)
