(** Grow-by-doubling hold-back buffer for checker deliveries.

    Pending updates are seven flat int lanes (receive time, physical
    stamp, src, seq, variable slot, value, sense time).  {!take_ready}
    partitions in place on the receive time and sorts the ready batch by
    the substrate-invariant (stamp, src, seq) key with an in-place
    heapsort — keys are unique per update, so the result matches the
    stable sort the list-based checker used.  Steady state allocates
    nothing.  Single-writer: one checker event stream per arena. *)

type t

val create : unit -> t

val pending : t -> int
(** Entries currently held back. *)

val head_recv : t -> int
(** Receive time of the oldest pending entry, the least receive time
    held back provided {!add} is called in non-decreasing [recv] order
    ({!take_ready} keeps the survivors in the order they were added).
    Raises [Invalid_argument] when nothing is pending. *)

val add :
  t ->
  recv:int -> stamp:int -> src:int -> seq:int -> var_idx:int -> value:int ->
  sense:int -> unit

val take_ready : t -> cutoff:int -> int
(** Move every entry with [recv <= cutoff] into the batch, sorted by
    (stamp, src, seq); survivors stay pending.  Returns the batch
    length.  The batch is valid until the next [take_ready]. *)

(** Batch accessors, indexed [0 .. take_ready - 1]. *)

val stamp : t -> int -> int
val src : t -> int -> int
val seq : t -> int -> int
val var_idx : t -> int -> int
val value : t -> int -> int
val sense : t -> int -> int
