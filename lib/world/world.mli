(** The world plane ⟨O, C⟩: object registry and the single mutation point
    of object attributes.  Changes go to the subscribers and are not kept;
    detection is scored by [Ground_truth] over the sensors' update stream. *)

type change = {
  time : Psn_sim.Sim_time.t;
  obj : int;
  attr : string;
  old_value : Value.t option;
  new_value : Value.t;
}

type t

val create : Psn_sim.Engine.t -> t

val add_object : t -> name:string -> ?pos:Psn_util.Vec2.t -> unit -> World_object.t
(** Ids are assigned densely from 0. *)

val object_count : t -> int
val obj : t -> int -> World_object.t

val subscribe : t -> (change -> unit) -> unit
(** Called synchronously on every attribute change; sensors subscribe here
    (with their own range filtering and latency). *)

val set_attr : t -> int -> string -> Value.t -> unit
(** The single mutation point: updates the object, notifies listeners. *)

val get_attr : t -> int -> string -> Value.t option
