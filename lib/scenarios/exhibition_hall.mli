(** The paper's §5 exhibition hall: door sensors, room capacity, relational
    occupancy predicate Σ(x_i − y_i) > capacity. *)

type cfg = {
  doors : int;
  capacity : int;
  visitors : int;
  dwell_mean : float;
}

val default : cfg
val predicate : cfg -> Psn_predicates.Expr.t
val init : cfg -> (Psn_predicates.Expr.var * Psn_world.Value.t) list

val run :
  ?cfg:cfg -> ?policy:Psn_detection.Metrics.borderline_policy ->
  Psn.Config.t -> Psn.Report.t
(** Forces [config.n >= cfg.doors]. *)
