(** Mattern/Fidge causality-based vector clock (rules VC1–VC3).

    Stamps are immutable snapshots safe to store in event logs. *)

type t
type stamp = int array

val create : n:int -> me:int -> t
val size : t -> int
val read : t -> stamp

val tick : t -> stamp
(** VC1: relevant local event; returns the new stamp. *)

val send : t -> stamp
(** VC2: tick and return the stamp to piggyback. *)

val receive : t -> stamp -> stamp
(** VC3: componentwise max then local tick. *)

val leq : stamp -> stamp -> bool
val equal : stamp -> stamp -> bool

val happened_before : stamp -> stamp -> bool
(** Strict causal precedence: the vector-clock order is isomorphic to
    Lamport's happened-before on the events that produced the stamps. *)

val concurrent : stamp -> stamp -> bool
val merge : stamp -> stamp -> stamp

val compare_partial : stamp -> stamp -> int option
(** [Some] of a comparison when ordered, [None] when concurrent. *)

val total : stamp -> int
(** Component sum; a scalar heuristic for linearizing concurrent stamps. *)

(** {2 Stamp-plane fast path}

    The same rules VC1–VC3, writing into a {!Stamp_plane} arena instead
    of materializing a fresh array per event.  Handle-level comparisons
    live on {!Stamp_plane}.  The copy-stamp API above is retained as
    the differential-test oracle. *)

val tick_into : Stamp_plane.t -> t -> Stamp_plane.handle
(** VC1 into the plane; returns the new stamp's handle. *)

val send_into : Stamp_plane.t -> t -> Stamp_plane.handle
(** VC2: tick and return the handle to piggyback. *)

val receive_from : Stamp_plane.t -> t -> Stamp_plane.handle -> unit
(** VC3 without a snapshot: merge + tick, zero allocation (the checker's
    receive path). *)

val receive_into : Stamp_plane.t -> t -> Stamp_plane.handle -> Stamp_plane.handle
(** VC3 with the post-receive snapshot allocated in the plane. *)
