(** Radio energy accounting (abstract mJ): prices the paper's "this
    service is not for free" argument. *)

type cost = {
  tx_per_word : float;
  rx_per_word : float;
  listen_per_sec : float;
  sleep_per_sec : float;
}

val default_cost : cost
(** CC2420-flavoured ratios; idle listening dominates at low traffic.
    Every account charges at these prices. *)

type t

val create : n:int -> unit -> t
val charge_tx : t -> int -> words:int -> unit
val charge_rx : t -> int -> words:int -> unit

val charge_radio_time :
  t -> int -> awake:Psn_sim.Sim_time.t -> asleep:Psn_sim.Sim_time.t -> unit

val node_total : t -> int -> float
val total : t -> float
