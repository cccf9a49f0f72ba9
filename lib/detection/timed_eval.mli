(** Offline evaluation of timed relations against the ground-truth update
    stream. *)

val classify_y :
  ?init:(Psn_predicates.Expr.var * Psn_world.Value.t) list ->
  updates:Observation.update list -> horizon:Psn_sim.Sim_time.t ->
  Psn_predicates.Timed.t ->
  Ground_truth.interval list * Ground_truth.interval list
(** Y-interval occurrences (matched, unmatched) — unmatched Y's are the
    alarms in the banking scenario. *)

val holds :
  ?init:(Psn_predicates.Expr.var * Psn_world.Value.t) list ->
  updates:Observation.update list -> horizon:Psn_sim.Sim_time.t ->
  Psn_predicates.Timed.t -> bool
