(** Covert (hidden) channels of the world-plane overlay C.

    Object-to-object influences the network plane cannot, in general,
    observe. Every transmission is logged as ground truth so experiments
    can quantify how much true world causality is recoverable. *)

type transmission = {
  seq : int;
  src_obj : int;
  dst_obj : int;
  sent_at : Psn_sim.Sim_time.t;
  delivered_at : Psn_sim.Sim_time.t;
  src_attr : string;
}

type t

val create : Psn_sim.Engine.t -> World.t -> t

val connect :
  t -> src:int -> dst:int -> ?trigger_attr:string -> delay:Psn_sim.Delay_model.t ->
  ?observable:bool -> (World.t -> transmission -> unit) -> unit
(** React to attribute changes of [src] by applying [effect] after a delay.
    [observable] channels are reported to {!on_observable} listeners —
    modelling the rare case (smart pen, robotic warehouse) where the
    network plane can mirror a world-plane communication. *)

val on_observable : t -> (transmission -> unit) -> unit
val transmission_count : t -> int

val causal_pairs :
  t -> (int * int * Psn_sim.Sim_time.t * Psn_sim.Sim_time.t) list
(** Ground-truth (src, dst, sent, delivered) causal pairs. *)
