(** Relative timing relations on the single time axis: "X before Y",
    "X before Y by >= T", "X overlaps Y", and the secure-banking shape
    "Y within T after X". *)

type relation =
  | Before
  | Before_by_at_least of Psn_sim.Sim_time.t
  | Before_within of Psn_sim.Sim_time.t
  | Overlaps
  | Contains

type t = {
  name : string;
  x : Expr.t;
  y : Expr.t;
  relation : relation;
}

val make : name:string -> x:Expr.t -> y:Expr.t -> relation:relation -> t
val pp : Format.formatter -> t -> unit
