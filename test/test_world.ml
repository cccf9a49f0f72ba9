(* Tests for psn_world: values, objects, the world registry and its
   change notifications, rooms, mobility, event generators and covert
   channels. *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Value = Psn_world.Value
module World = Psn_world.World
module World_object = Psn_world.World_object
module Rooms = Psn_world.Rooms
module Mobility = Psn_world.Mobility
module Event_gen = Psn_world.Event_gen
module Covert = Psn_world.Covert
module Rng = Psn_util.Rng
module Vec2 = Psn_util.Vec2

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let value = Alcotest.testable Value.pp Value.equal

(* Subscribes to [world] and returns a reader of every change it
   notifies from now on, oldest first.  Call it before the first write. *)
let record world =
  let changes = ref [] in
  World.subscribe world (fun c -> changes := c :: !changes);
  fun () -> List.rev !changes

(* --- Value --- *)

let test_value_equal () =
  Alcotest.(check bool) "int/float coercion" true
    (Value.equal (Value.Int 3) (Value.Float 3.0));
  Alcotest.(check bool) "bool" true (Value.equal (Value.Bool true) (Value.Bool true));
  Alcotest.(check bool) "mismatch" false
    (Value.equal (Value.Bool true) (Value.Int 1));
  Alcotest.(check bool) "strings" true
    (Value.equal (Value.String "a") (Value.String "a"))

let test_value_conversions () =
  Alcotest.(check (float 1e-9)) "int to float" 5.0 (Value.to_float (Value.Int 5));
  Alcotest.(check int) "float to int" 5 (Value.to_int (Value.Float 5.9));
  Alcotest.(check bool) "bool" true (Value.to_bool (Value.Bool true));
  Alcotest.check_raises "bool to float" (Value.Type_error "expected a numeric value")
    (fun () -> ignore (Value.to_float (Value.Bool true)))

let test_value_compare () =
  Alcotest.(check bool) "3 < 3.5" true (Value.compare_num (Value.Int 3) (Value.Float 3.5) < 0);
  Alcotest.(check bool) "strings" true
    (Value.compare_num (Value.String "a") (Value.String "b") < 0);
  Alcotest.(check bool) "bools" true
    (Value.compare_num (Value.Bool false) (Value.Bool true) < 0);
  Alcotest.check_raises "incomparable" (Value.Type_error "incomparable values")
    (fun () -> ignore (Value.compare_num (Value.Bool true) (Value.String "x")))

let test_value_pp () =
  Alcotest.(check string) "int" "42" (Value.to_string (Value.Int 42));
  Alcotest.(check string) "bool" "true" (Value.to_string (Value.Bool true));
  Alcotest.(check string) "string" "\"hi\"" (Value.to_string (Value.String "hi"))

(* --- World objects and registry --- *)

let test_world_objects () =
  let engine = Engine.create () in
  let world = World.create engine in
  let o1 = World.add_object world ~name:"a" () in
  let o2 = World.add_object world ~name:"b" ~pos:(Vec2.make 1.0 2.0) () in
  Alcotest.(check int) "ids dense" 0 (World_object.id o1);
  Alcotest.(check int) "ids dense 2" 1 (World_object.id o2);
  Alcotest.(check int) "count" 2 (World.object_count world);
  Alcotest.(check string) "name" "b" (World_object.name (World.obj world 1));
  Alcotest.check_raises "bad id" (Invalid_argument "World.obj: id out of range")
    (fun () -> ignore (World.obj world 7))

let test_world_many_objects () =
  let engine = Engine.create () in
  let world = World.create engine in
  for i = 0 to 99 do
    ignore (World.add_object world ~name:(string_of_int i) ())
  done;
  Alcotest.(check int) "growth" 100 (World.object_count world);
  Alcotest.(check string) "object 73" "73" (World_object.name (World.obj world 73))

let test_world_attrs_history () =
  let engine = Engine.create () in
  let world = World.create engine in
  let changes = record world in
  let o = World.add_object world ~name:"a" () in
  let id = World_object.id o in
  ignore (Engine.schedule_at engine (Sim_time.of_ms 10) (fun () ->
      World.set_attr world id "x" (Value.Int 1)));
  ignore (Engine.schedule_at engine (Sim_time.of_ms 20) (fun () ->
      World.set_attr world id "x" (Value.Int 2)));
  Engine.run engine;
  Alcotest.(check (option value)) "current" (Some (Value.Int 2))
    (World.get_attr world id "x");
  let h = changes () in
  Alcotest.(check int) "changes" 2 (List.length h);
  let first = List.hd h in
  Alcotest.(check (option value)) "old value none" None first.World.old_value;
  Alcotest.check value "new value" (Value.Int 1) first.World.new_value

let test_world_subscribe () =
  let engine = Engine.create () in
  let world = World.create engine in
  let o = World.add_object world ~name:"a" () in
  let seen = ref [] in
  World.subscribe world (fun c -> seen := c.World.attr :: !seen);
  World.set_attr world (World_object.id o) "t" (Value.Int 1);
  World.set_attr world (World_object.id o) "u" (Value.Int 2);
  Alcotest.(check (list string)) "notified in order" [ "t"; "u" ] (List.rev !seen)

let test_object_tags () =
  let o = World_object.create ~id:0 ~name:"pen" () in
  World_object.add_tag o "smart";
  World_object.add_tag o "smart";
  Alcotest.(check bool) "has tag" true (World_object.has_tag o "smart");
  Alcotest.(check int) "no dup" 1 (List.length (World_object.tags o))

(* --- Rooms --- *)

let test_rooms_hall () =
  let r = Rooms.hall ~doors:4 in
  Alcotest.(check int) "rooms" 1 (Rooms.n_rooms r);
  Alcotest.(check int) "doors" 4 (Rooms.n_doors r);
  Alcotest.(check int) "doors from hall" 4 (List.length (Rooms.doors_from r 0));
  Alcotest.(check int) "doors from outside" 4
    (List.length (Rooms.doors_from r Rooms.outside));
  let d = Rooms.door r 2 in
  Alcotest.(check int) "other side" 0 (Rooms.other_side r d Rooms.outside)

let test_rooms_corridor () =
  let r = Rooms.corridor ~rooms:3 in
  Alcotest.(check int) "doors" 3 (Rooms.n_doors r);
  Alcotest.(check int) "middle room has two" 2
    (List.length (Rooms.doors_from r 1));
  match Rooms.crossing_door r ~from_room:0 ~to_room:1 with
  | Some d -> Alcotest.(check int) "door 1" 1 d.Rooms.door_id
  | None -> Alcotest.fail "expected a door"

let test_rooms_invalid () =
  Alcotest.check_raises "self door"
    (Invalid_argument "Rooms.create: door must join two distinct rooms")
    (fun () -> ignore (Rooms.create ~n_rooms:2 ~doors:[ (1, 1) ]));
  Alcotest.check_raises "unknown room"
    (Invalid_argument "Rooms.create: door references unknown room") (fun () ->
      ignore (Rooms.create ~n_rooms:2 ~doors:[ (0, 5) ]))

let test_rooms_no_crossing () =
  let r = Rooms.corridor ~rooms:3 in
  Alcotest.(check bool) "no direct door 0-2" true
    (Rooms.crossing_door r ~from_room:0 ~to_room:2 = None)

(* --- Mobility --- *)

let test_room_walk_generates_crossings () =
  let engine = Engine.create ~seed:3L () in
  let world = World.create engine in
  let changes = record world in
  let rooms = Rooms.hall ~doors:2 in
  let o = World.add_object world ~name:"v" () in
  let rng = Rng.create ~seed:3L () in
  let cfg =
    { Mobility.dwell_mean = 10.0; room_attr = "room"; door_attr = Some "door" }
  in
  Mobility.room_walk engine world rng ~obj:(World_object.id o) ~rooms
    ~start_room:Rooms.outside ~cfg ~until:(Sim_time.of_sec 600);
  Engine.run ~until:(Sim_time.of_sec 600) engine;
  let room_changes =
    List.filter (fun c -> c.World.attr = "room") (changes ())
  in
  Alcotest.(check bool) "many crossings" true (List.length room_changes > 10);
  (* Every crossing alternates outside <-> hall and is preceded by a door
     write naming a valid door. *)
  List.iter
    (fun (c : World.change) ->
      let room = Value.to_int c.World.new_value in
      Alcotest.(check bool) "valid room" true (room = Rooms.outside || room = 0))
    room_changes;
  let door_changes =
    List.filter (fun c -> c.World.attr = "door") (changes ())
  in
  (* One door write per crossing after the initial placement. *)
  Alcotest.(check int) "door writes" (List.length room_changes - 1)
    (List.length door_changes)

let test_corridor_walk_conserves_occupancy () =
  (* Walkers through a corridor of wards: reconstructing per-room
     occupancy from the crossing stream must never go negative and must
     always sum to the walker population. *)
  let engine = Engine.create ~seed:14L () in
  let world = World.create engine in
  let changes = record world in
  let rooms = Rooms.corridor ~rooms:3 in
  let walkers = 6 in
  let rng = Rng.create ~seed:14L () in
  let cfg =
    { Mobility.dwell_mean = 20.0; room_attr = "room"; door_attr = Some "door" }
  in
  for w = 0 to walkers - 1 do
    let o = World.add_object world ~name:(Printf.sprintf "w%d" w) () in
    Mobility.room_walk engine world (Rng.split rng) ~obj:(World_object.id o)
      ~rooms ~start_room:Rooms.outside ~cfg ~until:(Sim_time.of_sec 1200)
  done;
  Engine.run ~until:(Sim_time.of_sec 1200) engine;
  (* Replay the room changes. *)
  let occupancy = Hashtbl.create 8 in
  let get r = match Hashtbl.find_opt occupancy r with Some c -> c | None -> 0 in
  Hashtbl.replace occupancy Rooms.outside walkers;
  let ok = ref true in
  List.iter
    (fun (c : World.change) ->
      if c.World.attr = "room" then begin
        let dst = Value.to_int c.World.new_value in
        (match c.World.old_value with
        | Some v ->
            let src = Value.to_int v in
            Hashtbl.replace occupancy src (get src - 1)
        | None -> Hashtbl.replace occupancy Rooms.outside (get Rooms.outside - 1));
        Hashtbl.replace occupancy dst (get dst + 1);
        let total = Hashtbl.fold (fun _ c acc -> acc + c) occupancy 0 in
        if total <> walkers then ok := false;
        Hashtbl.iter (fun _ c -> if c < 0 then ok := false) occupancy
      end)
    (changes ());
  Alcotest.(check bool) "conserved, never negative" true !ok;
  (* Deep rooms are reachable: someone made it to ward 2. *)
  let reached_deep =
    List.exists
      (fun (c : World.change) ->
        c.World.attr = "room" && Value.to_int c.World.new_value = 2)
      (changes ())
  in
  Alcotest.(check bool) "corridor traversed" true reached_deep

let test_waypoint_stays_in_bounds () =
  let engine = Engine.create ~seed:4L () in
  let world = World.create engine in
  let o = World.add_object world ~name:"v" () in
  let rng = Rng.create ~seed:4L () in
  let cfg =
    { Mobility.default_waypoint with width = 10.0; height = 5.0;
      tick = Sim_time.of_ms 200 }
  in
  Mobility.random_waypoint engine world rng ~obj:(World_object.id o) ~cfg
    ~until:(Sim_time.of_sec 120);
  let ok = ref true in
  ignore
    (Engine.schedule_periodic engine ~start:(Sim_time.of_sec 1)
       ~period:(Sim_time.of_sec 1) ~until:(Sim_time.of_sec 120) (fun () ->
         let p = World_object.pos (World.obj world 0) in
         if
           Vec2.x p < -0.001 || Vec2.x p > 10.001 || Vec2.y p < -0.001
           || Vec2.y p > 5.001
         then ok := false;
         true));
  Engine.run ~until:(Sim_time.of_sec 120) engine;
  Alcotest.(check bool) "in bounds" true !ok

(* --- Event generators --- *)

let test_poisson_updates () =
  let engine = Engine.create ~seed:5L () in
  let world = World.create engine in
  let changes = record world in
  let o = World.add_object world ~name:"src" () in
  let rng = Rng.create ~seed:5L () in
  Event_gen.poisson_updates engine world rng ~obj:(World_object.id o) ~attr:"x"
    ~rate_per_sec:1.0
    ~value:(fun rng -> Value.Int (Rng.int rng 10))
    ~until:(Sim_time.of_sec 1000);
  Engine.run ~until:(Sim_time.of_sec 1000) engine;
  let n = List.length (changes ()) in
  (* ~1000 expected; allow generous slack. *)
  Alcotest.(check bool) "poisson count" true (n > 850 && n < 1150)

let test_random_walk_bounds_and_threshold () =
  let engine = Engine.create ~seed:6L () in
  let world = World.create engine in
  let changes = record world in
  let o = World.add_object world ~name:"room" () in
  let rng = Rng.create ~seed:6L () in
  Event_gen.random_walk_float engine world rng ~obj:(World_object.id o)
    ~attr:"temp" ~init:20.0 ~sigma:1.0 ~lo:15.0 ~hi:25.0 ~threshold:0.5
    ~period:(Sim_time.of_sec 1) ~until:(Sim_time.of_sec 600);
  Engine.run ~until:(Sim_time.of_sec 600) engine;
  let seen = changes () in
  Alcotest.(check bool) "some changes" true (List.length seen > 5);
  let rec check_jumps prev = function
    | [] -> ()
    | (c : World.change) :: rest ->
        let v = Value.to_float c.World.new_value in
        Alcotest.(check bool) "within bounds" true (v >= 15.0 && v <= 25.0);
        (match prev with
        | Some p ->
            Alcotest.(check bool) "significant change" true
              (Float.abs (v -. p) >= 0.5 -. 1e-9)
        | None -> ());
        check_jumps (Some v) rest
  in
  (* Skip the initial write when checking the threshold. *)
  check_jumps None (List.tl seen)

let test_toggle_bool_alternates () =
  let engine = Engine.create ~seed:7L () in
  let world = World.create engine in
  let changes = record world in
  let o = World.add_object world ~name:"room" () in
  let rng = Rng.create ~seed:7L () in
  Event_gen.toggle_bool engine world rng ~obj:(World_object.id o) ~attr:"m"
    ~init:false ~mean_true_s:10.0 ~mean_false_s:10.0
    ~until:(Sim_time.of_sec 500);
  Engine.run ~until:(Sim_time.of_sec 500) engine;
  let values =
    List.map (fun (c : World.change) -> Value.to_bool c.World.new_value)
      (changes ())
  in
  Alcotest.(check bool) "several toggles" true (List.length values > 10);
  let rec alternates = function
    | a :: (b :: _ as rest) -> a <> b && alternates rest
    | _ -> true
  in
  Alcotest.(check bool) "alternating" true (alternates values)

(* --- Covert channels --- *)

let test_covert_effect_and_log () =
  let engine = Engine.create ~seed:8L () in
  let world = World.create engine in
  let covert = Covert.create engine world in
  let src = World.add_object world ~name:"src" () in
  let dst = World.add_object world ~name:"dst" () in
  let src_id = World_object.id src and dst_id = World_object.id dst in
  Covert.connect covert ~src:src_id ~dst:dst_id ~trigger_attr:"x"
    ~delay:Psn_sim.Delay_model.synchronous (fun world tx ->
      World.set_attr world dst_id "y" (Value.Int tx.Covert.seq));
  ignore (Engine.schedule_at engine (Sim_time.of_ms 10) (fun () ->
      World.set_attr world src_id "x" (Value.Int 1)));
  Engine.run engine;
  Alcotest.(check int) "one transmission" 1 (Covert.transmission_count covert);
  Alcotest.(check (option value)) "effect applied" (Some (Value.Int 1))
    (World.get_attr world dst_id "y");
  match Covert.causal_pairs covert with
  | [ (s, d, sent, delivered) ] ->
      Alcotest.(check int) "src" src_id s;
      Alcotest.(check int) "dst" dst_id d;
      Alcotest.(check bool) "sent <= delivered" true Sim_time.(sent <= delivered)
  | _ -> Alcotest.fail "expected one causal pair"

let test_covert_trigger_filter () =
  let engine = Engine.create ~seed:9L () in
  let world = World.create engine in
  let covert = Covert.create engine world in
  let src = World.add_object world ~name:"src" () in
  let dst = World.add_object world ~name:"dst" () in
  Covert.connect covert ~src:(World_object.id src) ~dst:(World_object.id dst)
    ~trigger_attr:"x" ~delay:Psn_sim.Delay_model.synchronous (fun _ _ -> ());
  World.set_attr world (World_object.id src) "other" (Value.Int 1);
  Engine.run engine;
  Alcotest.(check int) "attr filter" 0 (Covert.transmission_count covert)

let test_covert_observable_callback () =
  let engine = Engine.create ~seed:10L () in
  let world = World.create engine in
  let covert = Covert.create engine world in
  let src = World.add_object world ~name:"src" () in
  let dst = World.add_object world ~name:"dst" () in
  let dst_id = World_object.id dst in
  let observed = ref 0 in
  let effect_after_observer = ref false in
  Covert.connect covert ~src:(World_object.id src) ~dst:dst_id ~trigger_attr:"x"
    ~delay:Psn_sim.Delay_model.synchronous ~observable:true (fun world _ ->
      effect_after_observer := !observed > 0;
      World.set_attr world dst_id "y" (Value.Int 1));
  Covert.on_observable covert (fun _ -> incr observed);
  World.set_attr world (World_object.id src) "x" (Value.Int 1);
  Engine.run engine;
  Alcotest.(check int) "observed" 1 !observed;
  Alcotest.(check bool) "observer before effect" true !effect_after_observer

let test_covert_no_recursive_trigger () =
  (* A channel whose effect changes its own source attribute on the
     destination must not retrigger within the same delivery. *)
  let engine = Engine.create ~seed:11L () in
  let world = World.create engine in
  let covert = Covert.create engine world in
  let a = World.add_object world ~name:"a" () in
  let b = World.add_object world ~name:"b" () in
  let a_id = World_object.id a and b_id = World_object.id b in
  Covert.connect covert ~src:a_id ~dst:b_id ~trigger_attr:"x"
    ~delay:Psn_sim.Delay_model.synchronous (fun world _ ->
      World.set_attr world b_id "x" (Value.Int 99));
  Covert.connect covert ~src:b_id ~dst:a_id ~trigger_attr:"x"
    ~delay:Psn_sim.Delay_model.synchronous (fun world _ ->
      World.set_attr world a_id "x" (Value.Int 98));
  World.set_attr world a_id "x" (Value.Int 1);
  Engine.run engine;
  (* a->b fires; b's change inside delivery does not re-fire b->a. *)
  Alcotest.(check int) "one transmission" 1 (Covert.transmission_count covert)

let test_value_roundtrip =
  qtest "value: float roundtrip" QCheck.(float_bound_exclusive 1000.0) (fun f ->
      Value.to_float (Value.Float f) = f)

let () =
  Alcotest.run "psn_world"
    [
      ( "value",
        [
          Alcotest.test_case "equal" `Quick test_value_equal;
          Alcotest.test_case "conversions" `Quick test_value_conversions;
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "pp" `Quick test_value_pp;
          test_value_roundtrip;
        ] );
      ( "world",
        [
          Alcotest.test_case "objects" `Quick test_world_objects;
          Alcotest.test_case "many objects" `Quick test_world_many_objects;
          Alcotest.test_case "attrs/history" `Quick test_world_attrs_history;
          Alcotest.test_case "subscribe" `Quick test_world_subscribe;
          Alcotest.test_case "tags" `Quick test_object_tags;
        ] );
      ( "rooms",
        [
          Alcotest.test_case "hall" `Quick test_rooms_hall;
          Alcotest.test_case "corridor" `Quick test_rooms_corridor;
          Alcotest.test_case "invalid" `Quick test_rooms_invalid;
          Alcotest.test_case "no crossing" `Quick test_rooms_no_crossing;
        ] );
      ( "mobility",
        [
          Alcotest.test_case "room walk crossings" `Quick
            test_room_walk_generates_crossings;
          Alcotest.test_case "corridor conservation" `Quick
            test_corridor_walk_conserves_occupancy;
          Alcotest.test_case "waypoint bounds" `Quick test_waypoint_stays_in_bounds;
        ] );
      ( "event_gen",
        [
          Alcotest.test_case "poisson" `Quick test_poisson_updates;
          Alcotest.test_case "random walk" `Quick test_random_walk_bounds_and_threshold;
          Alcotest.test_case "toggle" `Quick test_toggle_bool_alternates;
        ] );
      ( "covert",
        [
          Alcotest.test_case "effect and log" `Quick test_covert_effect_and_log;
          Alcotest.test_case "trigger filter" `Quick test_covert_trigger_filter;
          Alcotest.test_case "observable order" `Quick test_covert_observable_callback;
          Alcotest.test_case "no recursion" `Quick test_covert_no_recursive_trigger;
        ] );
    ]
