(** Typed execution events (paper §2.2): compute/sense/actuate/send/receive. *)

type kind =
  | Compute
  | Sense of { obj : int; attr : string; value : Psn_world.Value.t }
  | Actuate of { obj : int; attr : string; value : Psn_world.Value.t }
  | Send of { dst : int option }
  | Receive of { src : int }

type t = {
  proc : int;
  index : int;
  time : Psn_sim.Sim_time.t;
  kind : kind;
  vstamp : int array option;
  sstamp : int option;
}

val make :
  proc:int -> index:int -> time:Psn_sim.Sim_time.t -> kind:kind ->
  ?vstamp:int array -> ?sstamp:int -> unit -> t

val is_relevant : t -> bool
(** Sense events are the strobe protocols' "relevant events". *)

val kind_label : t -> string
