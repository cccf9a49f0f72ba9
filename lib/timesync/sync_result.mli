(** Uniform outcome of a synchronization run: achieved skew ε and cost. *)

type t = {
  protocol : string;
  n : int;
  eps_max_s : float;
  eps_rms_s : float;
  messages : int;
  words : int;
  duration : Psn_sim.Sim_time.t;
}

val measure :
  protocol:string -> messages:int -> words:int -> duration:Psn_sim.Sim_time.t ->
  Psn_clocks.Physical_clock.t array -> int list -> now:Psn_sim.Sim_time.t -> t
(** Max/rms pairwise corrected-reading spread over the node subset. *)
