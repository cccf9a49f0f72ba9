(** Chandy–Lamport consistent global snapshots over FIFO channels
    (Appendix A's "efficient consistent snapshots" use of logical time). *)

type ('state, 'app) snapshot = {
  states : 'state array;
  channels : 'app list array array;
      (** [channels.(src).(dst)]: messages in flight on the cut, in send
          order. *)
}

type ('state, 'app) t

val create :
  Psn_sim.Engine.t -> n:int -> delay:Psn_sim.Delay_model.t ->
  local_state:(int -> 'state) ->
  apply:(dst:int -> src:int -> 'app -> unit) -> unit -> ('state, 'app) t
(** [local_state i] must read process i's current state; [apply] delivers
    application messages.  Channels are lossless FIFO; an application
    message and a marker each cost one word. *)

val send_app : ('state, 'app) t -> src:int -> dst:int -> 'app -> unit
val on_complete : ('state, 'app) t -> (('state, 'app) snapshot -> unit) -> unit

val initiate : ('state, 'app) t -> by:int -> unit
(** Raises if a snapshot is already in progress. *)
