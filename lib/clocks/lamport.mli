(** Lamport logical scalar clock (rules SC1–SC3 of the paper, after
    Lamport 1978). *)

type t
type stamp = int

val create : me:int -> t
val me : t -> int

val read : t -> stamp
(** Current value without ticking. *)

val tick : t -> stamp
(** SC1: relevant local (internal or sense) event. *)

val send : t -> stamp
(** SC2: tick and return the value to piggyback on the message. *)

val receive : t -> stamp -> stamp
(** SC3: merge the piggybacked stamp and tick. *)

val compare_total : stamp * int -> stamp * int -> int
(** Lamport's total order on (stamp, process id) pairs — the single time
    axis the linear order model needs. *)
