(** A passive world-plane object [o ∈ O]: attributes, position, no clock. *)

type t

val create : id:int -> name:string -> ?pos:Psn_util.Vec2.t -> unit -> t
val id : t -> int
val name : t -> string
val pos : t -> Psn_util.Vec2.t
val set_pos : t -> Psn_util.Vec2.t -> unit

val get_attr : t -> string -> Value.t option

val set_attr_raw : t -> string -> Value.t -> unit
(** Raw write that bypasses the world's subscribers; prefer [World.set_attr]. *)

val add_tag : t -> string -> unit
val has_tag : t -> string -> bool
val tags : t -> string list
