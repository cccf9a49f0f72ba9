(** Global cuts: per-process prefix lengths, ordered componentwise. *)

type t = int array

val bottom : int -> t
val top : int array -> t
val equal : t -> t -> bool
val leq : t -> t -> bool
val join : t -> t -> t
val meet : t -> t -> t

val level : t -> int
(** Total number of included events. *)

val successors : lens:int array -> t -> (int * t) list
(** Cuts reachable by including one more event; each tagged with the
    advancing process. *)
