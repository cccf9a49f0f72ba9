(** Oracle: maximal intervals where the predicate really held, from the
    true-time replay of the sensors' update stream. *)

type interval = { t_start : Psn_sim.Sim_time.t; t_end : Psn_sim.Sim_time.t }

val compare_updates : Observation.update -> Observation.update -> int
(** The true-time replay order: (sense_time, src, seq). *)

val intervals :
  ?init:(Psn_predicates.Expr.var * Psn_world.Value.t) list ->
  updates:Observation.update list -> predicate:Psn_predicates.Expr.t ->
  horizon:Psn_sim.Sim_time.t -> unit -> interval list
(** Sorted, disjoint, maximal. Unbound variables make φ false. Updates
    after [horizon] are ignored; a final open interval closes at it. *)

val total_true_time : interval list -> Psn_sim.Sim_time.t
