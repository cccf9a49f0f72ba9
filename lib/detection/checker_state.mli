(** The checker's evolving global-state view with transition reporting and
    override evaluation for race analysis.  φ runs on
    {!Psn_predicates.Compiled} (O(1) per step for the hall's linear sum);
    unbound variables read as false.  A variable φ never reads has no
    slot: applying it is [Same] and overriding it does nothing. *)

type transition = Rose | Fell | Same
type t

val create :
  ?init:(Psn_predicates.Expr.var * Psn_world.Value.t) list ->
  Psn_predicates.Expr.t -> t

val holds : t -> bool

val apply :
  t -> Observation.update -> transition * Psn_world.Value.t option
(** Returns the transition and the previous value of the updated
    variable: [None] when unbound, and for a variable φ never reads. *)

val eval_with_override :
  t -> var:Psn_predicates.Expr.var -> value:Psn_world.Value.t option -> bool
(** Evaluate φ with one variable overridden ([None] = unbound), then
    restore it. *)
