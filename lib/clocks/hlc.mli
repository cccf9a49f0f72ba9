(** Hybrid logical clock (extension): a single time axis that stays close
    to physical time yet preserves the logical-clock property. *)

type stamp = { l : Psn_sim.Sim_time.t; c : int }
type t

val create : me:int -> Physical_clock.t -> t
val me : t -> int
val compare_stamp : stamp -> stamp -> int

val tick : t -> now:Psn_sim.Sim_time.t -> stamp
val send : t -> now:Psn_sim.Sim_time.t -> stamp
val receive : t -> now:Psn_sim.Sim_time.t -> stamp -> stamp

val physical_divergence : t -> now:Psn_sim.Sim_time.t -> float
(** |l − local physical reading| in seconds. *)
