(** Hospital ward (§5): waypoint visitors, bedside proximity sensors,
    conjunctive coincidence predicate, optional alarm actuation. *)

type cfg = {
  patients : int;
  visitors : int;
  ward_width : float;
  ward_height : float;
  sense_radius : float;
  sample_period : Psn_sim.Sim_time.t;
  visitor_speed : float;
  alarm : bool;
}

val default : cfg
val n_processes : cfg -> int
val predicate : cfg -> Psn_predicates.Expr.t

val run :
  ?cfg:cfg -> ?modality:Psn_predicates.Modality.t ->
  ?policy:Psn_detection.Metrics.borderline_policy -> Psn.Config.t ->
  Psn.Report.t
