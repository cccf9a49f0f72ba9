(** Strobe vector clock (rules SVC1–SVC2).

    A vector clock whose partial order is induced by system-wide control
    broadcasts at relevant (sensed) events rather than by program
    messages. Receivers merge but never tick. *)

type t
type stamp = int array

val create : n:int -> me:int -> t
val read : t -> stamp

val tick_and_strobe : t -> stamp
(** SVC1: tick own component; broadcast the returned snapshot. *)

val receive_strobe : t -> stamp -> unit
(** SVC2: componentwise max, no tick. *)

val stamp_size_words : int -> int
(** O(n) wire size, vs the scalar strobe's O(1). *)

(** {2 Stamp-plane fast path} — SVC1/SVC2 against a {!Stamp_plane}
    arena; the copy-stamp API above remains the differential oracle. *)

val tick_and_strobe_into : Stamp_plane.t -> t -> Stamp_plane.handle
(** SVC1 into the plane; broadcast the returned handle. *)

val receive_strobe_from : Stamp_plane.t -> t -> Stamp_plane.handle -> unit
(** SVC2: componentwise max from a plane stamp, no tick, no allocation. *)
