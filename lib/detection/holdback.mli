(** Hold-back front end shared by the {!Psn_sim.Exec} detectors.

    The paper's checker holds every update back for [hold] (Δ + ε) and
    applies it in timestamp order (§5).  {!Sharded_detector} and
    {!Streaming_detector} differ only in what they do with an applied
    update; everything before that lives here: the transport ([n]
    sensor pids plus the checker, pid [n], always group 0), per-pid
    [synced_within] clocks seeded from [(Exec.seed, pid)], the wire
    format, per-source variable-name tables and sequence counters, the
    per-source ground-truth log, and the flush of a {!Pending_arena}.
    Receive times, stamps and sequence numbers are substrate-invariant,
    so every flush batch is too.

    Flush contract: one flush is scheduled on group 0's engine exactly
    while something is held back.  An arrival into an empty arena arms
    it at the first grid point [k * flush_period] ([k >= 1]) at or
    after its [recv + hold]; a flush that leaves arrivals held re-arms
    at the grid point of the oldest one, {!Pending_arena.head_recv}.
    That entry is the oldest because arrivals enter the arena in
    receive order (the checker's engine runs them in time order) and a
    flush keeps the survivors in that order.  With [hold > 0] each grid
    point is the tick of a fixed [flush_period] schedule that would
    first have taken the arrival, and it runs after the arrival, so
    every batch has the time and contents that schedule would give it,
    and no flush runs on an empty arena.

    Wire format: value, sense time, physical stamp, a {e lane} holding
    the sequence number with the variable-name index in its low two
    bits, and one detector-owned word (a stamp-plane handle, or [-1]).

    Ground truth: each source keeps a log of two ints per update, in
    sequence order: the value, and the sense time in ns with the
    variable slot in its low two bits (as the lane packs the sequence
    number).  The log lives in segments written in place and never
    copied, of 16, 16, 32, 64, ... ints up to a fixed cap of 8 192
    ints, so a source of m updates holds no more than a doubling array
    from 16 ints would.  The log is the only part of the front end that grows with
    the run, at 16 B per update; {!updates} builds the record list from
    it on demand.

    [group_of] is called once per pid, at {!create}.

    Group locality: a source's name table, sequence counter,
    ground-truth log and its group's update counter are written only by
    its group's events; the checker's arena only by checker events.  The
    checker reads a name table only for updates the source emitted,
    hence at a delivery at least a lookahead after the write. *)

type t

val max_vars : int
(** Distinct variable names per source (slots [0 .. max_vars - 1]). *)

val create :
  ?loss:Psn_sim.Loss_model.t ->
  ?sinks:Psn_obs.Trace.sink array ->
  Psn_sim.Exec.t ->
  who:string -> label:string -> updates_metric:string ->
  n:int -> groups:int -> group_of:(int -> int) -> eps:Psn_sim.Sim_time.t ->
  hold:Psn_sim.Sim_time.t -> flush_period:Psn_sim.Sim_time.t ->
  delay:Psn_sim.Delay_model.t -> t
(** Raises [Invalid_argument] (prefixed [who]) unless [n], [groups] and
    [flush_period] are positive, [hold] is not negative and [group_of]
    maps every sensor pid [0 .. n-1] into [0 .. groups-1].  [label]
    names the transport, [updates_metric] the per-group update
    counter. *)

val net : t -> Psn_network.Shard_net.t

val admit : t -> src:int -> var:string -> value:int -> int
(** From a sense event on [src]'s group: checks [src], finds or assigns
    [var]'s slot, takes the next sequence number and appends the update
    to [src]'s ground-truth log.  Returns the lane for {!send}.  Raises
    [Invalid_argument] for [src] outside [0 .. n-1], a fifth name, or a
    sense time (the group engine's clock) at or past 2^60 ns, which the
    log cannot pack. *)

val send :
  t -> src:int -> lane:int -> value:int -> vh:int ->
  tick:Psn_obs.Trace.event -> int
(** Stamps the admitted update, traces [tick] and unicasts it to the
    checker with [vh] as the detector word.  Returns the delivery time
    {!Psn_network.Shard_net.send} sampled, in ns, or [-1] for a drop. *)

val on_arrival : t -> (src:int -> seq:int -> vh:int -> unit) -> unit
(** Installs the checker's delivery handler: the hook runs, then the
    arrival is held back in the checker's arena and, if the arena was
    empty, arms a flush (see the flush contract above). *)

val on_flush : t -> (now:Psn_sim.Sim_time.t -> int -> unit) -> unit
(** Installs the checker's flush callback.  Each flush takes the
    arrivals received at or before [now - hold] from {!pending} and
    passes the batch length, never 0 while [Exec.run] runs, to the
    callback. *)

val flush_all : t -> (now:Psn_sim.Sim_time.t -> int -> unit) -> unit
(** After [Exec.run]: one last batch of everything still held back,
    including the arrivals whose grid point lies past the horizon. *)

val pending : t -> Pending_arena.t
val var_name : t -> src:int -> var_idx:int -> string

val var_slot : t -> src:int -> string -> int
(** The slot of a name [src] has emitted, else [-1]. *)

val updates : t -> Observation.update list
(** Every admitted update in (sense_time, src, seq) order
    ({!Ground_truth.compare_updates}), built from the logs on each
    call. *)

val log_words : t -> int
(** Ints the ground-truth logs hold, segments allocated in full. *)

val update_count : t -> int
(** [List.length (updates t)], from the per-source sequence counters:
    no sort, no allocation. *)
