(** Fixed-capacity mutable bitset. *)

type t

val create : int -> t
val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
val union : t -> t -> t
val inter : t -> t -> t
val to_list : t -> int list
