(** Per-run bump-allocated arena for vector stamps.

    A stamp lives in one flat [int array]; its identity is an
    immediate-int {!handle} (the offset of its first component), so
    stamps can be piggybacked on messages, stored in detector logs, and
    compared without ever allocating.  The arena grows by doubling, and
    growth preserves handles (they are offsets, not pointers).

    A plane may also {!release} its oldest stamps: handles below the
    release floor are dead, and every accessor rejects them.  When the
    backing array is full and at least half of it is released, the live
    stamps slide down to its start instead of doubling; handles stay
    global offsets, so every live handle names the same stamp across a
    slide.  A plane that never releases allocates exactly as one without
    the floor.

    Aliasing rules: a handle is valid until {!reset} of its plane or a
    {!release} past it; a handle must only be used with the plane that
    allocated it (a foreign handle past the live length raises
    [Invalid_argument], one within it silently names another stamp).
    {!backing} exposes the live backing array for bulk consumers (the
    packed lattice engine) of planes that never release; the reference
    is stale after a growing {!alloc}, but stale reads still see every
    stamp allocated before the growth (growth blits). *)

type t

type handle = int
(** Offset of the stamp's first component in {!backing}; always a
    multiple of the plane width. *)

val create : ?initial:int -> n:int -> unit -> t
(** A plane for width-[n] stamps; [initial] (default 64) is the stamp
    capacity before the first growth. *)

val width : t -> int
val count : t -> int
(** Stamps allocated since creation or the last {!reset}, released ones
    included: the next {!alloc} returns handle [count * width]. *)

val live : t -> int
(** Stamps allocated and not released. *)

val capacity : t -> int
(** Stamps the backing array can hold before the next growth or slide. *)

val reset : t -> unit
(** Recycle the arena: O(1), invalidates all outstanding handles and
    lowers the release floor to 0. *)

val floor : t -> handle
(** The release floor: the lowest handle still live (or {!count}
    [* width] when every stamp is released). *)

val release : t -> below:handle -> unit
(** Raise the release floor to [below]: every stamp with a smaller
    handle is dead.  A [below] at or under the floor changes nothing.
    Raises [Invalid_argument] unless [below] is a multiple of the width
    at most [count * width]. *)

val alloc : t -> handle
(** Bump-allocate one stamp; contents are unspecified — callers must
    write all [width] components (or use {!of_array} / {!merge}). *)

val is_valid : t -> handle -> bool
(** Allocated, aligned, and not released. *)

val get : t -> handle -> int -> int
val set : t -> handle -> int -> int -> unit

val of_array : t -> int array -> handle
(** Allocate and fill from an array of exactly [width] components. *)

val read : t -> handle -> int array
(** Copy out (for logs, tests, and the generic-walk fallback). *)

val blit_to : t -> handle -> int array -> pos:int -> unit
(** Copy the stamp's components into [dst.(pos) .. dst.(pos + width -
    1)]. *)

val max_into_array : t -> handle -> int array -> unit
(** Componentwise max of the stamp into a live clock vector — the merge
    half of VC3 / SVC2, no allocation. *)

val receive_snapshot : t -> handle -> int array -> me:int -> handle
(** Full VC3 in one pass: merge the stamp into the live vector, tick
    component [me], and return a fresh plane stamp of the result.  One
    handle check and one fused loop — the production receive path when
    the caller needs the post-receive snapshot. *)

val leq : t -> handle -> handle -> bool
val equal : t -> handle -> handle -> bool
val happened_before : t -> handle -> handle -> bool
val concurrent : t -> handle -> handle -> bool

val compare_lex : t -> handle -> handle -> int
(** Lexicographic by component — the order [Stdlib.compare] induces on
    equal-length int arrays, monomorphically. *)

val compare_partial : t -> handle -> handle -> int option
val total : t -> handle -> int

val merge : t -> handle -> handle -> handle
(** Fresh stamp = componentwise max. *)

val backing : t -> int array
(** The live backing array, where handle [h] starts at index [h] (see
    aliasing rules above).  Raises [Invalid_argument] once the plane has
    released a stamp: its rows may then have slid. *)
