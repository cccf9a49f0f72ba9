(** Generators of world-plane activity (the "changes significantly" events
    of the paper's event-driven execution model). *)

val poisson_updates :
  Psn_sim.Engine.t -> World.t -> Psn_util.Rng.t -> obj:int -> attr:string ->
  rate_per_sec:float -> value:(Psn_util.Rng.t -> Value.t) ->
  until:Psn_sim.Sim_time.t -> unit

val random_walk_float :
  Psn_sim.Engine.t -> World.t -> Psn_util.Rng.t -> obj:int -> attr:string ->
  init:float -> sigma:float -> lo:float -> hi:float -> threshold:float ->
  period:Psn_sim.Sim_time.t -> until:Psn_sim.Sim_time.t -> unit
(** Bounded random walk; only writes when the cumulative change exceeds
    [threshold]. *)

val toggle_bool :
  Psn_sim.Engine.t -> World.t -> Psn_util.Rng.t -> obj:int -> attr:string ->
  init:bool -> mean_true_s:float -> mean_false_s:float ->
  until:Psn_sim.Sim_time.t -> unit
(** Alternating boolean with exponential phase durations. *)
