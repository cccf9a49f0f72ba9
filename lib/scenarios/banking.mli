(** Secure banking (§6, after ref [22]): detect biometric presentations
    not preceded by a timely password, using ε-synchronized clocks, scored
    against the offline timed-relation oracle. *)

type cfg = {
  sessions_per_hour : float;
  attacks_per_hour : float;
  boundary_attack_prob : float;
      (** Per session: probability of a replay attack timed just outside
          the authentication window. *)
  password_duration : Psn_sim.Sim_time.t;
  auth_window : Psn_sim.Sim_time.t;
  legit_delay_max : Psn_sim.Sim_time.t;
  eps : Psn_sim.Sim_time.t;
  delay : Psn_sim.Delay_model.t;
  horizon : Psn_sim.Sim_time.t;
  seed : int64;
}

val default : cfg
val spec : cfg -> Psn_predicates.Timed.t

type result = {
  logins : int;
  attacks : int;
  oracle_alarms : int;
  alarms : int;
  alarm_tp : int;
  alarm_fp : int;
  alarm_fn : int;
  messages : int;
}

val run : cfg -> result
