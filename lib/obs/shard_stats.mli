(** Per-window counters of a sharded run: the flat-int observability
    arena behind [psn-sim shardstats].

    One row per barrier window, recorded by the sharded engine's
    coordinator.  Rows are written once into fixed chunks of 1024 rows
    (flat [int array]s) and never copied; only the small chunk
    directory grows, so recording allocates nothing but a new chunk
    every 1024 windows.  A row is [8 + 2K + K²] ints, 128 B at K = 2:
    about 8.6 MB for the 67 518 windows of a 25 000 s K = 2 stream.  A
    row holds the window's sim-time bounds, its limiting factor, the
    coordinator's drain/fold host time, the window loop's host time,
    mailbox traffic (per-(src, dst) message matrix plus ring
    occupancy), and per-shard events executed and busy host
    nanoseconds.

    {b Inline windows.}  The engine runs a window's shards one after
    another on the calling domain, so the per-row fields read:
    [par_ns] is the whole window loop; a shard's [busy_ns] is its own
    turn in that loop, so [par_ns - busy_ns] (Analyze's wait) is the
    time the {e other} shards ran; and [par_ns - Σ busy_ns] (Analyze's
    dispatch) is the loop's own overhead.  The field names and the
    ["psn-shardstats/1"] schema are those of the pooled windows they
    replaced.

    {b Host/sim quarantine.}  Like {!Profile}, this is an observer of
    the {e host} clock: readings are taken by the engine with
    {!now_ns} and passed in explicitly, and they never enter a trace
    sink or metrics registry — same-seed sim artifacts stay
    byte-identical whether or not stats are read.  Because every
    recording entry point takes explicit values, tests can hand-build
    a stats object with fixed numbers and golden its renderings. *)

type t

(** Why a window ended where it did. *)
type limit =
  | Lookahead  (** more work existed just past [window_end] — the
                   conservative bound, not the queue, cut the window *)
  | Queue  (** the queues went empty (or jumped far ahead): the next
               global event lies at least a full lookahead past the
               window *)
  | Horizon  (** the window was clipped by the run's [until] bound *)

val limit_to_string : limit -> string
(** ["lookahead"], ["queue"], ["horizon"]. *)

val create : shards:int -> lookahead_ns:int -> t
(** Raises [Invalid_argument] when [shards < 1]. *)

val now_ns : unit -> int
(** Monotonic host clock, nanoseconds.  The one clock source; callers
    read it and pass differences to the recording entry points. *)

(** {1 Recording} *)

val round_begin : t -> unit
(** Open (and zero) the next row.  Every barrier round begins here; the
    row is committed by {!window_close} or discarded into the epilogue
    totals by {!round_abort}. *)

val note_traffic : t -> src:int -> dst:int -> msgs:int -> unit
(** [msgs] messages drained from the [(src, dst)] mailbox this round. *)

val note_occupancy : t -> ints:int -> unit
(** Total ints occupied across mailbox rings at this round's barrier
    (before draining); also tracks the all-run peak. *)

val drain_done : t -> host_ns:int -> unit
(** Host time the coordinator spent draining mailboxes this round. *)

val fold_done : t -> host_ns:int -> unit
(** Host time computing the global minimum / next window this round. *)

val window_open : t -> start_ns:int -> end_ns:int -> unit
(** Sim-time bounds of the window about to execute ([end_ns]
    exclusive). *)

val shard_report : t -> shard:int -> events_total:int -> busy_ns:int -> unit
(** Called as shard [shard] finishes its turn in the window loop:
    [events_total] is the engine's cumulative event count (the open row
    stores the per-window delta), [busy_ns] the turn's host time. *)

val window_close : t -> clipped:bool -> par_ns:int -> unit
(** Commit the row: [par_ns] is the host time of the whole window loop
    (so [par_ns - busy] is the time the other shards ran).  [clipped]
    marks a {!Horizon}-limited window; otherwise the row is
    provisionally {!Queue} until the next round's {!classify_prev}
    sees the post-drain global minimum — only then is it known
    whether more work lay just past the window end (mailbox rings can
    hold the true next event, so classifying at close would lie). *)

val classify_prev : t -> next_ns:int -> unit
(** Settle the last committed row's {!limit} from the next round's
    post-drain global minimum [next_ns]: {!Lookahead} when
    [next_ns - end_ns < lookahead_ns] (the conservative bound, not
    the queue, cut the window), {!Queue} otherwise.  No-op when the
    last row is already classified. *)

val round_abort : t -> unit
(** The round opened no window (the run is past [until]): fold the
    row's drain/fold/traffic into the epilogue totals and discard it. *)

val note_posted : t -> src:int -> unit
(** One cross-shard message appended to a mailbox ring by shard [src]. *)

val run_done : t -> wall_ns:int -> unit
(** Host wall time of one [run] call; accumulates across calls. *)

(** {1 Reading} *)

val shards : t -> int
val lookahead_ns : t -> int

val windows : t -> int
(** Committed rows. *)

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

val total_events : t -> int
(** Σ over committed rows and shards — equals the engine's
    [events_processed] when every event ran inside a window (the
    conservation invariant the qcheck suite checks). *)

val posted_total : t -> int
(** Cross-shard messages appended to mailbox rings, all run. *)

val drained_total : t -> int
(** Cross-shard messages drained at barriers, all run.  Conservation:
    [posted_total = drained_total + pending] where [pending] is what
    still sits in the rings (zero after a completed run). *)

val pending : t -> int
(** [posted_total - drained_total]. *)

val peak_mail_ints : t -> int
val run_wall_ns : t -> int

val epilogue_drain_ns : t -> int
val epilogue_fold_ns : t -> int
val epilogue_mail_msgs : t -> int
(** Barrier work from rounds that opened no window (the final drain
    that discovers the horizon has passed).
    [Σ mail_msgs + epilogue_mail_msgs = drained_total]. *)

(** {1 Serialization}

    The JSON document (schema ["psn-shardstats/1"]) is emitted by
    {!Analyze.sharded_to_json}, which wraps {!raw_members} with the
    derived analysis; {!of_json} reads the raw members back and
    ignores the analysis, so a dumped file can be re-analyzed. *)

val raw_members : t -> (string * Json.t) list
(** [shards], [lookahead_ns], [totals], and the per-window [windows]
    array.  All-zero traffic matrices are omitted from rows. *)

val of_json : Json.t -> (t, string) result
