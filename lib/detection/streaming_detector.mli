(** Online Possibly/Definitely detector over an {!Psn_sim.Exec} substrate.

    The streaming counterpart of the post-hoc lattice walk: [n] sensor
    processes (pids [0 .. n-1]) run strobe vector clocks
    ({!Psn_clocks.Strobe_vector} — receivers merge, never tick), stamp
    each local-variable update, and unicast it over a
    {!Psn_network.Shard_net} to a checker process (pid [n], group 0 /
    shard 0) while strobing the post-tick stamp to every other source.
    The checker buffers arrivals and, at each hold-back flush (armed by
    arrivals on the [flush_period] grid by the {!Holdback} front end it
    shares with {!Sharded_detector}), feeds each source's updates
    {e in sequence order} to a {!Psn_lattice.Streaming} frontier
    walk, which commits consistent cuts as levels finalize, evaluates
    the predicate on every committed cut, reclaims the retired slab, and
    emits Possibly/Definitely verdict {e edges} the moment they are
    decided — bounded peak memory whatever the run length.

    {b Determinism.}  Updates apply in the arena's (stamp, src, seq)
    order within each flush and in per-source sequence order across
    flushes, both substrate-invariant keys, so the observe sequence —
    and with it every committed count, verdict edge, trace record, and
    [Lattice_commit] milestone — is identical on the single-queue oracle
    and on any shard count, and identical whether the trace is retained
    for post-hoc analysis or streamed through a tap (the PR 6
    online == post-hoc contract, extended to modalities).

    {b Partial synchrony.}  Liveness of the commit rule comes from the
    timing model: with clocks synced within [eps] and delays at least
    [Delay_model.min_delay], every source's updates reach the checker
    within [hold] of their send and is applied at the next flush-grid
    point, so every live source's observed prefix and the
    minimum-progress bound — hence the committed frontier — keep
    advancing.  A lost update truncates its source's contribution at
    the gap (later sequence numbers can never apply); run lossless for
    exact differential work.

    {b Group locality} matches {!Sharded_detector}: per-group stamp
    planes are written only by their group's sources; the checker and
    strobe receivers read foreign plane stamps only at delivery, a
    window after the write. *)

type cfg = {
  n : int;  (** sensor pids [0 .. n-1]; the checker is pid [n] *)
  groups : int;
  group_of : int -> int;  (** sensor pid -> group; the checker maps to 0 *)
  eps : Psn_sim.Sim_time.t;  (** clock sync bound *)
  hold : Psn_sim.Sim_time.t;  (** checker hold-back *)
  flush_period : Psn_sim.Sim_time.t;
  cap : int;  (** live-slab width bound handed to {!Psn_lattice.Streaming} *)
}

type t

(** A verdict edge with its detection context: the simulated time the
    checker decided it and the applied update whose observation decided
    it ([None] for edges only decidable at {!finish}). *)
type edge = {
  edge : Psn_lattice.Streaming.edge;
  at : Psn_sim.Sim_time.t;
  trigger : Observation.update option;
}

val create :
  ?loss:Psn_sim.Loss_model.t ->
  ?sinks:Psn_obs.Trace.sink array ->
  ?on_observe:(pid:int -> stamp:int array -> unit) ->
  Psn_sim.Exec.t -> cfg:cfg -> delay:Psn_sim.Delay_model.t ->
  predicate:Psn_predicates.Expr.t -> unit -> t
(** Builds the {!Holdback} front end (transport ["stream_detector"],
    counter [stream_detector.updates]; raises as {!Holdback.create}),
    the strobe vector clocks, and the per-group stamp planes.  The
    predicate is evaluated once per committed cut over each source's
    value history at that cut (unbound variables make a cut ¬φ, as in
    {!Psn_lattice.Modal.holds_of_expr}).  [sinks] (one per group) trace
    strobes, updates, occurrences, per-flush [Lattice_commit]
    milestones, and the transport records.  [on_observe] is a
    diagnostic tap called with every stamp in the exact order the
    streaming walk consumes it — the scratch array is reused, copy to
    keep — which is how the differential suite replays the same prefix
    through {!Psn_lattice.Packed}. *)

val emit : t -> src:int -> var:string -> value:int -> unit
(** Called from a sense event executing on [src]'s group engine: stamps
    the update (physical + strobe vector), unicasts it to the checker,
    and strobes the stamp to every other source.  At most four distinct
    variable names per source, as in {!Sharded_detector.emit}; a fifth,
    or [src] outside [0 .. n-1], raises [Invalid_argument]. *)

val finish : t -> unit
(** After [Exec.run]: apply every still-buffered arrival in key order,
    close all processes, and drain the walk to the top of the observed
    lattice, deciding the [_fails] edges.  Idempotent. *)

val net : t -> Psn_network.Shard_net.t
val stream : t -> Psn_lattice.Streaming.t
(** The underlying frontier walk (verdicts, committed counts, live/peak
    slab evidence). *)

val updates : t -> Observation.update list
(** Every update emitted, merged across sources in (sense_time, src,
    seq) order — the ground-truth stream, built from {!Holdback}'s
    per-source logs on each call. *)

val update_count : t -> int
(** [List.length (updates t)] without building the list. *)

val edges : t -> edge list
(** Verdict edges in decision order. *)

val observed : t -> int
(** Updates fed to the walk so far (= [Streaming.events_observed]). *)
