(* Object mobility models.

   The paper's objects "may be static or mobile (e.g., objects with RFID
   tags, animals with embedded chips, humans)".  Two models cover the
   scenarios: random waypoint in a rectangle (habitat/wildlife), and a
   room-graph walk whose door crossings are what door sensors sense
   (exhibition hall, hospital). *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Vec2 = Psn_util.Vec2
module Rng = Psn_util.Rng

type waypoint_cfg = {
  width : float;            (* metres *)
  height : float;
  speed_min : float;        (* metres/second *)
  speed_max : float;
  pause_max : float;        (* seconds *)
  tick : Sim_time.t;        (* position update period *)
}

let default_waypoint =
  {
    width = 100.0;
    height = 100.0;
    speed_min = 0.5;
    speed_max = 2.0;
    pause_max = 10.0;
    tick = Sim_time.of_ms 500;
  }

(* Drive [obj] with random-waypoint motion until [until].  Position updates
   mutate the object's [pos] directly (continuous state, not an attribute
   change); sensors observe it by polling proximity. *)
let random_waypoint engine world rng ~obj ~cfg ~until =
  if cfg.speed_min <= 0.0 || cfg.speed_max < cfg.speed_min then
    invalid_arg "Mobility.random_waypoint: bad speed range";
  let o = World.obj world obj in
  let rec choose_leg () =
    if Sim_time.( < ) (Engine.now engine) until then begin
      let target = Vec2.make (Rng.float rng cfg.width) (Rng.float rng cfg.height) in
      let speed = Rng.uniform rng cfg.speed_min cfg.speed_max in
      let start = World_object.pos o in
      let dist = Vec2.dist start target in
      let travel_s = dist /. speed in
      let start_time = Engine.now engine in
      let rec move () =
        let elapsed =
          Sim_time.to_sec_float (Sim_time.sub (Engine.now engine) start_time)
        in
        if elapsed >= travel_s || Sim_time.( >= ) (Engine.now engine) until then begin
          World_object.set_pos o target;
          let pause = Rng.float rng cfg.pause_max in
          Engine.schedule_after_unit engine (Sim_time.of_sec_float pause) choose_leg
        end
        else begin
          World_object.set_pos o (Vec2.lerp start target (elapsed /. travel_s));
          Engine.schedule_after_unit engine cfg.tick move
        end
      in
      move ()
    end
  in
  choose_leg ()

type room_walk_cfg = {
  dwell_mean : float;        (* seconds in a room before moving *)
  room_attr : string;        (* attribute updated on each crossing *)
  door_attr : string option; (* when set, the crossed door id is written
                                to this attribute just before the room
                                change, so door sensors know which of
                                several parallel doors was used *)
}

(* Walk an object over the room graph: dwell exponentially, then cross a
   uniformly chosen door out of the current room.  Each crossing updates
   the object's room attribute through [World.set_attr], which is the
   ground-truth event a door sensor will sense. *)
let room_walk engine world rng ~obj ~rooms ~start_room ~cfg ~until =
  World.set_attr world obj cfg.room_attr (Value.Int start_room);
  let rec dwell room =
    if Sim_time.( < ) (Engine.now engine) until then begin
      let wait = Rng.exponential rng ~mean:cfg.dwell_mean in
      Engine.schedule_after_unit engine (Sim_time.of_sec_float wait) (fun () ->
             if Sim_time.( < ) (Engine.now engine) until then begin
               match Rooms.doors_from rooms room with
               | [] -> dwell room
               | doors ->
                   let door = Rng.pick rng (Array.of_list doors) in
                   let next = Rooms.other_side rooms door room in
                   (match cfg.door_attr with
                   | Some attr ->
                       World.set_attr world obj attr (Value.Int door.Rooms.door_id)
                   | None -> ());
                   World.set_attr world obj cfg.room_attr (Value.Int next);
                   dwell next
             end)
    end
  in
  dwell start_room
