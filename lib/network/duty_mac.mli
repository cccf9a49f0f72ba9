(** Duty-cycled MAC: nodes sleep outside periodic awake windows, so the
    effective message delay is the link delay plus up to a sleep interval
    — the Δ-amplifier the strobe accuracy analysis feeds on. *)

type schedule = {
  period : Psn_sim.Sim_time.t;
  awake : Psn_sim.Sim_time.t;
  offset : Psn_sim.Sim_time.t;
}

type 'a t

val create :
  ?energy:Energy.t -> ?payload_words:('a -> int) -> Psn_sim.Engine.t ->
  n:int -> link_delay:Psn_sim.Delay_model.t -> schedules:schedule array ->
  'a t

val set_handler : 'a t -> int -> (src:int -> 'a -> unit) -> unit
val send : 'a t -> src:int -> dst:int -> 'a -> unit
val broadcast : 'a t -> src:int -> 'a -> unit
val messages_sent : 'a t -> int

val effective_delay_stats : 'a t -> Psn_util.Stats.t
(** MAC-level delays (send to delivery), seconds. *)

val finalize_energy : 'a t -> horizon:Psn_sim.Sim_time.t -> unit
(** Charge each node's listen/sleep time for the whole run. *)
