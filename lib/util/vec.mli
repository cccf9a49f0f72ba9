(** Growable array.

    OCaml 5.1's stdlib lacks [Dynarray] (added in 5.2); this is the small
    subset the library needs. A [dummy] element is required to back unused
    capacity without [Obj] tricks. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
val last : 'a t -> 'a option
val pop : 'a t -> 'a option
val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t
val exists : ('a -> bool) -> 'a t -> bool
val find_opt : ('a -> bool) -> 'a t -> 'a option
