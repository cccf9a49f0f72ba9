(** Packed-cut lattice engine: the one post-hoc consistent-cut walk.

    A cut is a flat entry of its code and its components.  The code is an
    exact mixed-radix number while the full lattice size Π (lenᵢ + 1)
    fits in an int and a per-process multiplicative hash past it; either
    way advancing process i adds a fixed increment.  One
    level-synchronous BFS driver serves every query below, with a
    per-level dedup map ({!Level_map}) — no per-cut allocation, for any
    execution size.

    Visit order, counts, verdicts, and cap behaviour equal those of a
    FIFO walk over array cuts (pinned by differential tests). *)

type stamps = int array array array

type verdict = Exact of int | At_least of int

type plan
(** Precomputed code increments and the flattened stamp plane for one
    execution. *)

val box_size : int array -> verdict
(** Size of the full lattice over executions with these per-process
    event counts: [Exact] Π (lenᵢ + 1) while it fits in an int,
    [At_least max_int] past it. *)

val plan_of_stamps : stamps -> plan
(** Assumes validated stamps. *)

val plan_of_plane :
  Psn_clocks.Stamp_plane.t ->
  handles:Psn_clocks.Stamp_plane.handle array array -> plan
(** Plan over a live {!Psn_clocks.Stamp_plane} with no stamp copy:
    [handles.(i).(k)] names process i's (k+1)-th event stamp.  The plan
    stays valid across later arena [alloc]s (growth blits) but dies with
    an arena [reset].  Assumes validated handles
    ([Lattice.validate_plane]). *)

val count : plan -> ?cap:int -> unit -> verdict
(** Size of the consistent sublattice, exploring at most [cap] cuts
    (default 2,000,000). *)

val cuts : plan -> ?cap:int -> unit -> Cut.t list * verdict
(** Enumerate consistent cuts in BFS (level) order; fresh arrays. *)

val is_chain : plan -> ?cap:int -> unit -> bool
(** Whether the consistent cuts are totally ordered; [false] when the
    exploration would cap. *)

val possibly : plan -> ?cap:int -> holds:(Cut.t -> bool) -> unit -> bool option
(** Possibly(φ): stops at the first φ-cut.  The cut array passed to
    [holds] is a scratch buffer reused between calls — copy it if it
    must outlive the call.  [None] = capped before an answer. *)

val definitely : plan -> ?cap:int -> holds:(Cut.t -> bool) -> unit -> bool option
(** Definitely(φ): walks ¬φ-cuts only and stops as soon as ⊤ escapes
    (or every path is blocked).  [holds] runs once per distinct
    consistent cut generated.  Same scratch-buffer caveat as
    [possibly]. *)

val frontier_probe : (int -> unit) option ref
(** Observability hook: when set, called once per expanded BFS level
    with that level's frontier width (number of cuts), e.g. to record
    the peak antichain width of an exploration.  One branch per level
    when unset.  Not domain-safe — install around sequential walks
    only.  {!Streaming} reports each committed frontier through the same
    hook, so one probe observes both engines. *)

(** Growable flat int buffer — the frontier representation, shared with
    the streaming engine ({!Streaming}). *)
module Ibuf : sig
  type t = { mutable a : int array; mutable len : int }

  val create : int -> t
  val clear : t -> unit
  val ensure : t -> int -> unit
  (** [ensure t extra] guarantees room for [extra] more ints. *)
end

(** The per-level dedup map of both walks: cut code → offset of the
    cut's entry in the level being built.  Entries are laid out as one
    header int followed by the cut's [n] components, and every candidate
    is a parent entry advanced by one event. *)
module Level_map : sig
  type t

  val hash_mix : int -> int
  (** [hash_mix i]: the fixed odd multiplier of process [i] in hashed
      codes, Σᵢ cᵢ · hash_mix i (mod 2⁶²). *)

  val create : unit -> t

  val reset : t -> hint:int -> unit
  (** Empty the map for a new level expected to hold about [hint]
      entries (it grows past that on demand). *)

  val find_or_add :
    t -> exact:bool -> n:int -> int array -> int -> int array -> int -> int -> int -> int
  (** [find_or_add t ~exact ~n buf q src o i code]: the candidate is the
      entry at [o] of [src] advanced by one event of process [i], and
      has [code].  Returns the offset of the entry of [buf] (the level
      being built) already holding it, or records [q] — where the caller
      then appends it — and returns [-1].  With [exact = false] codes are
      hashes, and a code match also compares components. *)
end
