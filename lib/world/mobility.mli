(** Object mobility: random waypoint (outdoor) and room-graph walks whose
    door crossings drive the indoor scenarios. *)

type waypoint_cfg = {
  width : float;
  height : float;
  speed_min : float;
  speed_max : float;
  pause_max : float;
  tick : Psn_sim.Sim_time.t;
}

val default_waypoint : waypoint_cfg

val random_waypoint :
  Psn_sim.Engine.t -> World.t -> Psn_util.Rng.t -> obj:int ->
  cfg:waypoint_cfg -> until:Psn_sim.Sim_time.t -> unit
(** Mutates the object's position over time (continuous state; sensors
    observe it by polling proximity). *)

type room_walk_cfg = {
  dwell_mean : float;
  room_attr : string;
  door_attr : string option;
      (** When set, the crossed door's id is written here just before each
          room change, so door sensors can attribute the crossing. *)
}

val room_walk :
  Psn_sim.Engine.t -> World.t -> Psn_util.Rng.t -> obj:int -> rooms:Rooms.t ->
  start_room:int -> cfg:room_walk_cfg -> until:Psn_sim.Sim_time.t -> unit
(** Each crossing updates the object's room attribute through
    [World.set_attr] — the ground-truth event door sensors sense. *)
