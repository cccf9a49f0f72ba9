(** Per-round counters of a sharded run: the flat-int observability
    arena behind [psn-sim shardstats].

    One round of {!Psn_sim.Exec}'s loop gives every shard one turn: it
    drains its own mailboxes, then runs below its own safe horizon.  The
    recording entry points, the field names and the
    ["psn-shardstats/2"] schema keep the names of the barrier windows
    the rounds replaced.  Each round is recorded as a row of
    [8 + 2K + K²] ints: its sim-time bounds (its start, the global
    minimum at its top, and its end, the furthest horizon any shard ran
    to), its limiting factor, the drains' and the fold's host time, the
    turns' host time, mailbox traffic (per-(src, dst) message matrix
    plus ring occupancy), and per-shard events executed and busy host
    nanoseconds.

    {b Bounded in run length.}  Closing a round folds its row into
    running totals: the sums {!Analyze.sharded} reads (limit counts,
    drain/fold/turn time, per-shard events, busy and wait time, the
    traffic matrix, the per-round maxima and the Amdahl projection's
    per-core-count sums).  Only the first {!kept_rows} rounds' rows
    are kept, in one fixed chunk of 1024 rows written in place; later
    rounds open their row in a one-row scratch buffer.  So the stats
    hold at most 1025 rows and O(K²) totals however long the run, and
    recording allocates nothing after the first round, which allocates
    the chunk.  The per-row accessors read the kept rows; the Chrome
    Gantt and the JSON ["windows"] array show them.

    {b Inline turns.}  The engine runs a round's turns one after
    another on the calling domain and reads the host clock back to
    back, so the per-row fields read: [drain_ns] sums the turns' drains
    (and the loop's own steps between turns); a shard's [busy_ns] is
    the rest of its turn, its horizon and its events; [par_ns] is
    [Σ busy_ns], so [par_ns - busy_ns] (Analyze's wait) is the time the
    {e other} shards ran and [par_ns - Σ busy_ns] (Analyze's dispatch)
    reads 0.

    {b Host/sim quarantine.}  Like {!Profile}, this is an observer of
    the {e host} clock: readings are taken by the engine with
    {!now_ns} and passed in explicitly, and they never enter a trace
    sink or metrics registry — same-seed sim artifacts stay
    byte-identical whether or not stats are read.  Because every
    recording entry point takes explicit values, tests can hand-build
    a stats object with fixed numbers and golden its renderings. *)

type t

(** Why a round ended where it did. *)
type limit =
  | Lookahead  (** the next round's global minimum lies less than a
                   lookahead past this round's end — the conservative
                   bound, not the queue, cut the round *)
  | Queue  (** the queues went empty (or jumped far ahead): the next
               global event lies at least a full lookahead past the
               round's end *)
  | Horizon  (** a shard's horizon was clipped by the run's [until]
                 bound, and the round ended there *)

val limit_to_string : limit -> string
(** ["lookahead"], ["queue"], ["horizon"]. *)

val create : shards:int -> lookahead_ns:int -> t
(** Raises [Invalid_argument] when [shards < 1]. *)

val now_ns : unit -> int
(** Monotonic host clock, nanoseconds.  The one clock source; callers
    read it and pass differences to the recording entry points. *)

(** {1 Recording} *)

val round_begin : t -> unit
(** Open (and zero) the next row.  Every round begins here; the row is
    committed by {!window_close} or discarded into the epilogue totals
    by {!round_abort}. *)

val note_traffic : t -> src:int -> dst:int -> msgs:int -> unit
(** [msgs] messages drained from the [(src, dst)] mailbox this round
    (at [dst]'s turn). *)

val note_occupancy : t -> ints:int -> unit
(** Ints occupied in the mailbox rings one drain of this round emptied
    (summed over the round's drains); also tracks the all-run peak of
    one drain. *)

val drain_done : t -> host_ns:int -> unit
(** Host time this round's drains took. *)

val fold_done : t -> host_ns:int -> unit
(** Host time computing the global minimum at the round's top. *)

val window_open : t -> start_ns:int -> end_ns:int -> unit
(** Sim-time bounds of the round: [start_ns] the global minimum at its
    top, [end_ns] (exclusive) the furthest horizon any shard ran to. *)

val shard_report : t -> shard:int -> events_total:int -> busy_ns:int -> unit
(** Called as shard [shard] finishes its turn: [events_total] is the
    engine's cumulative event count (the open row stores the per-round
    delta), [busy_ns] the turn's host time after its drain. *)

val window_close : t -> clipped:bool -> par_ns:int -> unit
(** Commit the row and fold it into the totals: [par_ns] is the host
    time of the turns less their drains (so [par_ns - busy] is the time
    the other shards ran).  [clipped] marks a {!Horizon}-limited round;
    otherwise the round is provisionally {!Queue} until the next
    round's {!classify_prev} sees the next global minimum — only then
    is it known whether more work lay just past the round's end. *)

val classify_prev : t -> next_ns:int -> unit
(** Settle the last committed round's {!limit} from the next round's
    global minimum [next_ns]: {!Lookahead} when
    [next_ns - end_ns < lookahead_ns] (the conservative bound, not
    the queue, cut the round), {!Queue} otherwise.  No-op when the
    last round is already classified. *)

val round_abort : t -> unit
(** The round ran no turn (nothing is left before [until]): fold the
    row's drain/fold/traffic into the epilogue totals and discard it. *)

val note_posted : t -> src:int -> unit
(** One cross-shard message appended to a mailbox ring by shard [src]. *)

val run_done : t -> wall_ns:int -> unit
(** Host wall time of one [run] call; accumulates across calls. *)

(** {1 Reading: totals}

    Every [sum_*] reader is a sum over all committed rounds, kept or
    not; the epilogue (rounds that ran no turn) is separate. *)

val shards : t -> int
val lookahead_ns : t -> int

val windows : t -> int
(** Committed rounds. *)

val limited : t -> limit -> int
(** Committed rounds settled (or, for the last one, provisionally
    classified) as the given {!limit}. *)

val sum_drain_ns : t -> int
val sum_fold_ns : t -> int
val sum_par_ns : t -> int

val sum_events : t -> shard:int -> int
val sum_busy_ns : t -> shard:int -> int

val sum_wait_ns : t -> shard:int -> int
(** Σ over rounds of [max 0 (par_ns - busy_ns)]. *)

val sum_traffic : t -> src:int -> dst:int -> int

val sum_max_busy_ns : t -> int
(** Σ over rounds of the largest shard's [busy_ns]: the critical path. *)

val sum_max_events : t -> int
(** Σ over rounds of the largest shard's event count. *)

val sum_dispatch_ns : t -> int
(** Σ over rounds of [max 0 (par_ns - Σ busy_ns)]. *)

val amdahl_turns_ns : t -> (int * int) array
(** For each core count [c] of the Amdahl projection — 1, 2, 4, 8, 16
    and 32, plus [K] when it is not among them, ascending — the pair
    [(c, Σ over rounds of max (max_s busy_ns) ⌈Σ_s busy_ns / c⌉)]: the
    rounds' turns laid out on [c] cores.  A fresh array. *)

val total_events : t -> int
(** Σ over committed rounds and shards — equals the engine's
    [events_processed] when every event ran inside a round (the
    conservation invariant the qcheck suite checks). *)

val posted_total : t -> int
(** Cross-shard messages appended to mailbox rings, all run. *)

val drained_total : t -> int
(** Cross-shard messages drained into queues, all run.  Conservation:
    [posted_total = drained_total + pending] where [pending] is what
    still sits in the rings (zero after a completed run). *)

val pending : t -> int
(** [posted_total - drained_total]. *)

val peak_mail_ints : t -> int
val run_wall_ns : t -> int

val epilogue_drain_ns : t -> int
val epilogue_fold_ns : t -> int
val epilogue_mail_msgs : t -> int
(** Work from rounds that ran no turn (the final round, which finds
    nothing left before the horizon and drains what the rings still
    hold).
    [Σ_src,dst sum_traffic + epilogue_mail_msgs = drained_total]. *)

(** {1 Reading: kept rows}

    Each reader takes a round index [w] and raises [Invalid_argument]
    unless [0 <= w < kept_rows]. *)

val kept_rows : t -> int
(** Rounds whose rows are kept: the first [min windows 1024]. *)

val start_ns : t -> int -> int
val end_ns : t -> int -> int
val limit : t -> int -> limit
val drain_ns : t -> int -> int
val fold_ns : t -> int -> int
val par_ns : t -> int -> int
val mail_msgs : t -> int -> int
val mail_ints : t -> int -> int
val events : t -> int -> shard:int -> int
val busy_ns : t -> int -> shard:int -> int
val traffic : t -> int -> src:int -> dst:int -> int

(** {1 Serialization}

    The JSON document (schema ["psn-shardstats/2"]) is emitted by
    {!Analyze.sharded_to_json}, which appends the derived analysis to
    {!raw_members}; {!of_json} reads the raw members back and ignores
    the analysis, so a dumped file of any length re-analyzes to the
    same bytes. *)

val raw_members : t -> (string * Json.t) list
(** [schema], [shards], [lookahead_ns], the [totals] object (the
    all-run counters and every [sum_*] total), and the [windows] array
    of kept rows.  All-zero traffic matrices are omitted from rows. *)

val of_json : Json.t -> (t, string) result
(** Restores totals and kept rows.  Rejects another schema (naming it,
    so a ["psn-shardstats/1"] dump says so), missing or non-int fields,
    per-shard, traffic or Amdahl lists of the wrong length, and a
    [windows] array that does not hold [min totals.windows 1024]
    rows. *)
