(** Strobe scalar clock (rules SSC1–SSC2).

    Receivers catch up but never tick on receipt; the strobe is an O(1)
    control message, not a causality tracker. *)

type t
type stamp = int

val create : me:int -> t
val me : t -> int
val read : t -> stamp

val tick_and_strobe : t -> stamp
(** SSC1: tick on a relevant (sensed) event; the returned value must be
    broadcast system-wide by the caller. *)

val receive_strobe : t -> stamp -> unit
(** SSC2: [C := max (C, T)]. *)

val stamp_size_words : int
