(** Monomorphic event queue: 4-ary min-heap keyed on (time in ns,
    insertion sequence), the discrete-event engine's hot path.

    Keys live in flat immediate-[int] planes parallel to the payload
    array, so comparisons are inlined integer compares (no comparator
    closure, no boxed keys) and pops allocate nothing (no [option]).
    Equal times pop in insertion order — the FIFO tie-break that keeps
    simulations deterministic.  Vacated payload slots are overwritten
    with [dummy] so popped payloads (typically closures) are not
    retained by the backing array. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills empty payload slots; it is never returned by
    [pop_exn] unless it was explicitly added. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time_ns:int -> 'a -> unit
(** Amortized O(log₄ n); allocation only on capacity growth. *)

val add_ranked : 'a t -> time_ns:int -> rank:int -> 'a -> unit
(** Like {!add}, but keyed below insertion order: the payload pops before
    every {!add}ed payload of equal time, whenever either was added, and
    equal-time ranked payloads pop in increasing [rank].  Two pending
    payloads with equal time and rank pop in an unspecified order, so a
    caller keeps at most one pending payload per rank.  Raises
    [Invalid_argument] for a negative [rank]. *)

val min_time_ns : 'a t -> int
(** Key of the next event to pop. Raises [Invalid_argument] when empty. *)

val pop_exn : 'a t -> 'a
(** Remove and return the payload with the smallest (time, seq) key.
    Raises [Invalid_argument] when empty — guard with [is_empty]; the
    split avoids an option allocation per event. *)

val clear : 'a t -> unit
(** Drop all pending events (payload slots are released). *)
