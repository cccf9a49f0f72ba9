(** Streaming frontier lattice: online Possibly/Definitely with bounded
    memory at unbounded run length.

    The packed walk ({!Packed}) enumerates the cut lattice of a
    {e finished} execution, so its memory and time grow with run length.
    This module consumes events one at a time, in per-process order, and
    maintains only the {e live slab} of the lattice: the frontier of
    consistent cuts at the highest {e finalized} level, everything below
    already committed (counted, evaluated, and reclaimed).

    {b Commit rule.}  Level [L] is finalized once
    [L <= min over open processes i of sum (last stamp of i)]: by vector
    clock monotonicity a future event of process [i] carries a stamp
    whose component sum strictly exceeds that of its last one, and a
    consistent cut containing an event dominates that event's stamp
    componentwise — so no event not yet observed can ever join a cut at
    a finalized level.  The frontier therefore advances exactly through
    the cut sequence the post-hoc walk would visit, and on any bounded
    prefix [finish] yields verdicts and committed-cut counts equal to
    {!Packed} run post-hoc on that prefix (the differential suite pins
    this).

    {b Reclamation.}  Cuts below the frontier die with an O(1) buffer
    reset when the frontier swaps (the retired slab); event stamps below
    the meet of the frontier (the minimum stable cut, {!base_component}) are
    unreachable by any future consistency check and are reclaimed by
    periodically resetting the internal {!Psn_clocks.Stamp_plane} arena
    and re-allocating only the live window — amortized O(1) per event.
    Peak memory is proportional to the widest live slab, not to run
    length.

    {b Representation.}  Frontier entries are packed mixed-radix int
    codes {e relative to the base cut} ([Packed]'s stride scheme over the
    live window's radices), so dedup during expansion is an int-keyed
    probe whatever the absolute event counts; when the live window's
    radix product overflows 62 bits the walk falls back to hashing the
    decoded components ({!overflowed}) with identical results.

    Verdict {e edges} (the first φ-cut committed; the level at which
    every ¬φ path died; the final refutations) are emitted through
    [on_edge] as soon as they are decided, which is how an online
    detector sits in a serving path without waiting for the run to
    end. *)

type t

(** Modality edges, emitted at most once each, as soon as decidable.
    [Possibly_holds l]: a φ-cut committed at level [l].
    [Definitely_holds l]: no ¬φ path survived past level [l] — every
    observation passes through φ.  The [_fails] edges can only be
    decided at {!finish} (the full lattice is needed to refute). *)
type edge =
  | Possibly_holds of int
  | Definitely_holds of int
  | Possibly_fails
  | Definitely_fails

val create :
  n:int -> ?cap:int -> ?on_edge:(edge -> unit) ->
  holds:(int array -> bool) -> unit -> t
(** A streaming detector over [n] processes.  [holds] is evaluated once
    per committed cut, on a scratch array of absolute per-process event
    counts reused between calls — copy it if it must outlive the call.
    [cap] (default 1_000_000) bounds the live slab width in cuts: past
    it the walk freezes and undecided answers stay undecided
    ({!capped}), mirroring [Packed]'s [At_least] semantics.  Raises
    [Invalid_argument] when [n <= 0] or [cap <= 0]. *)

val observe : t -> pid:int -> stamp:int array -> unit
(** Feed the next event of [pid] with its vector stamp.  Events of one
    process must arrive in order ([stamp.(pid)] must equal the number of
    events observed from [pid] plus one, the {!Lattice.validate} rule)
    and with componentwise monotone stamps; cross-process interleaving
    is arbitrary — the commit rule, not arrival order, decides when
    levels finalize.  Raises [Invalid_argument] on a malformed stamp or
    an already {!close_pid}d process. *)

val close_pid : t -> pid:int -> unit
(** Declare that [pid] emits no more events: it stops constraining the
    commit rule.  Idempotent. *)

val finish : t -> unit
(** Close every process and drain the walk to the top cut; after this
    {!possibly} and {!definitely} are decided (unless {!capped}) and
    {!committed_cuts} is [Exact] the full consistent-cut count. *)

(** {2 Results} *)

val events_observed : t -> int

val committed_level : t -> int
(** Highest finalized level: cuts of at most this many events are
    committed. *)

val committed_cuts : t -> Packed.verdict
(** Consistent cuts committed so far; [Exact] after an uncapped
    {!finish}, [At_least] when {!capped}. *)

val possibly : t -> bool option
(** [Some true] once a φ-cut commits; [Some false] only after an
    uncapped {!finish} with no φ-cut; [None] while undecided. *)

val definitely : t -> bool option
(** [Some true] once no committed ¬φ path survives; [Some false] after
    {!finish} when one reaches the top cut; [None] while undecided. *)

val base_component : t -> int -> int
(** Component [i] of the minimum stable cut (the meet of the live
    frontier): every event of process [i] below it is committed into all
    surviving paths and reclaimed.  The online detector's value-history
    reclamation reads it per event. *)

(** {2 Memory evidence} *)

val live_cuts : t -> int
(** Cuts in the live slab now. *)

val peak_live_cuts : t -> int
(** Widest live slab over the whole run — the bounded-memory claim is
    that this is independent of run length for a fixed workload shape. *)

val peak_live_events : t -> int

val overflowed : t -> bool
(** Whether the relative packed encoding ever overflowed and the walk
    fell back to hashed components. *)

val capped : t -> bool
(** Whether the live slab hit [cap] and the walk froze. *)
