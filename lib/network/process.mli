(** A sensor/actuator process [p ∈ P]: id, local event log, local
    variables. Clock state belongs to the protocol running on it. *)

type t

val create : Psn_sim.Engine.t -> id:int -> t
val id : t -> int

val log_event :
  ?vstamp:int array -> ?sstamp:int -> t -> Exec_event.kind -> Exec_event.t

val events : t -> Exec_event.t list
val event_count : t -> int
val nth_event : t -> int -> Exec_event.t

val set_var : t -> string -> Psn_world.Value.t -> unit
val get_var : t -> string -> Psn_world.Value.t option
val get_var_exn : t -> string -> Psn_world.Value.t
val vars : t -> (string * Psn_world.Value.t) list
