(** Host-time scoped profiler with GC telemetry.

    The one module in the observability layer that reads the *host*
    clock. [with_phase] brackets a thunk with the monotonic clock and
    [Gc.quick_stat], accumulating wall nanoseconds and GC deltas per
    phase name. Host readings never enter a trace sink or metrics
    registry — they live only in the profile artifact — so same-seed
    trace byte-identity is unaffected by profiling.

    Phases aggregate by name (re-entering sums into the same row) and
    keep first-entry order. Nesting is allowed; a nested phase's cost is
    also counted in its enclosing phase, as in any wall-clock profiler. *)

type t

type phase = {
  name : string;
  count : int;  (** times the phase was entered *)
  wall_ns : int;  (** total host wall time, nanoseconds *)
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

val create : unit -> t

val with_phase : t -> string -> (unit -> 'a) -> 'a
(** [with_phase t name f] runs [f ()], charging its wall time and GC
    deltas to [name]. Records even when [f] raises. *)

val phases : t -> phase list
(** Accumulated phases in first-entry order. *)

val to_json : t -> string
(** ["psn-profile/1"] document: schema, unit, and the phase rows with a
    fixed field order. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table: name, count, wall ms, allocation, GC counts. *)

(** {1 Per-domain default}

    Mirrors {!Trace.with_default}: installs a profile that the
    instrumentation helper [phase] charges to, on the calling domain
    only.  Without a default installed there, [phase name f] is just
    [f ()], so a phase entered on another domain is not charged.  A
    sharded run executes its windows on the calling domain, so its
    ["sharded.window"] phase covers every shard's work. *)

val with_default : t -> (unit -> 'a) -> 'a
val phase : string -> (unit -> 'a) -> 'a
