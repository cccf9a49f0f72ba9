(** Smart office (ref [17]'s motivating example): conjunctive predicate
    temp > threshold ∧ motion, with an optional thermostat actuation loop. *)

type cfg = {
  temp_threshold : float;
  temp_init : float;
  temp_sigma : float;
  temp_period : Psn_sim.Sim_time.t;
  motion_on_mean : float;
  motion_off_mean : float;
  thermostat : bool;
  thermostat_reset : float;
  extra_sensors : int;
}

val default : cfg
val n_processes : cfg -> int
val predicate : cfg -> Psn_predicates.Expr.t

val run :
  ?cfg:cfg -> ?modality:Psn_predicates.Modality.t ->
  ?policy:Psn_detection.Metrics.borderline_policy -> Psn.Config.t ->
  Psn.Report.t
