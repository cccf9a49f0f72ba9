(** Registry of named counters, gauges, and histograms.

    A registry is created per run (the engine owns one), so metrics never
    leak across runs. Instruments are get-or-create by name: the handle
    returned is a direct mutable cell, so the hot path pays one field
    update, not a name lookup. Snapshots are sorted by name and serialize
    to/from JSON losslessly. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Get or create. Raises [Invalid_argument] if the name is already
    registered as a different instrument kind. *)

val incr : ?by:int -> counter -> unit

val tick : counter -> unit
(** [incr] by one without the optional-argument dispatch; for
    instrumented hot loops. *)

val counter_value : counter -> int

val gauge : t -> string -> gauge
val set : gauge -> float -> unit

val histogram : t -> ?lo:float -> ?hi:float -> ?bins:int -> string -> histogram
(** Fixed-range histogram backed by [Psn_util.Stats.histogram]; defaults
    [lo=0., hi=1000., bins=20]. Bounds are fixed at first creation; a
    later get-or-create of the same name must request the same bounds —
    a mismatch raises [Invalid_argument] rather than silently keeping the
    original range and misbinning the caller's samples. *)

val observe : histogram -> float -> unit

(** {2 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      lo : float;
      hi : float;
      counts : int array;
      underflow : int;
      overflow : int;
    }

type snapshot = (string * value) list
(** Sorted by name. *)

val snapshot : t -> snapshot

val reset : t -> unit
(** Zero every instrument, keeping registrations (and histogram bounds). *)

val merge_snapshots : snapshot list -> snapshot
(** Deterministic union: counters sum, histogram bins/overflows sum
    (bounds must agree), gauges take the last writer in list order.
    Merging the per-shard registries of a sharded run must reproduce the
    single-run snapshot, so sharded layers register only counters and
    histograms.  Raises [Invalid_argument] on instrument-kind or
    histogram-bound mismatches. *)

val find : snapshot -> string -> value option
val get_counter : snapshot -> string -> int
(** 0 when absent or not a counter. *)

val snapshot_to_json : snapshot -> string
val snapshot_of_json : string -> (snapshot, string) result
(** [snapshot_of_json (snapshot_to_json s) = Ok s]. *)

(** {2 Timeline}

    A metric time series: periodic samples of every registered instrument
    over simulated time, held in a fixed-capacity ring buffer (a full
    ring overwrites the oldest sample).  The registry does not drive the
    sampling — whoever owns the clock does; [Psn_sim.Engine] samples its
    registry every [timeline_period_ns] when a timeline is installed.
    Exported as JSONL and as Chrome counter tracks by [Export]. *)

type timeline

type sample = { s_time_ns : int; s_values : (string * float) list }
(** Values sorted by instrument name: counters and histogram totals as
    floats, gauges verbatim. *)

val timeline_create : ?capacity:int -> period_ns:int -> unit -> timeline
(** Default capacity 4096 samples. Raises on non-positive period or
    capacity. *)

val timeline_period_ns : timeline -> int

val timeline_record : timeline -> time_ns:int -> t -> unit
(** Append one sample of registry [t] at simulated time [time_ns]. *)

val timeline_samples : timeline -> sample list
(** Oldest first; at most [capacity] entries. *)

val timeline_recorded : timeline -> int
(** Total samples ever recorded, including overwritten ones. *)

val timeline_dropped : timeline -> int
(** How many of the recorded samples the ring has overwritten. *)

(** {3 Per-domain default timeline}

    Mirrors {!Trace.with_default}: engines created on the calling domain
    while a default timeline is installed sample their registry on its
    period; engines on other domains do not see it. *)

val default_timeline : unit -> timeline option
(** The calling domain's default timeline. *)

val with_default_timeline : timeline -> (unit -> 'a) -> 'a
(** Installs the timeline on the calling domain, runs the thunk with
    that domain's {!Psn_util.Parallel} maps kept at home
    ({!Psn_util.Parallel.sequentially}), and restores the previous
    default even on exceptions. *)
