(* The world plane ⟨O, C⟩ (paper §2.1).

   Central registry of objects and the single mutation point of their
   attributes: the "time-varying global map of the physical world" the
   network plane tries to mirror.  Every change is pushed to the
   subscribers (the sensors), and nothing is kept: the experiments score
   detection against [Ground_truth.intervals] over the sensors' update
   stream. *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time

type change = {
  time : Sim_time.t;
  obj : int;
  attr : string;
  old_value : Value.t option;
  new_value : Value.t;
}

type t = {
  engine : Engine.t;
  mutable objects : World_object.t array;
  mutable n_objects : int;
  mutable listeners : (change -> unit) list;
}

let create engine = { engine; objects = [||]; n_objects = 0; listeners = [] }

let add_object t ~name ?pos () =
  let id = t.n_objects in
  let obj = World_object.create ~id ~name ?pos () in
  if id = Array.length t.objects then begin
    let cap = max 8 (2 * Array.length t.objects) in
    let objects = Array.make cap obj in
    Array.blit t.objects 0 objects 0 t.n_objects;
    t.objects <- objects
  end;
  t.objects.(id) <- obj;
  t.n_objects <- t.n_objects + 1;
  obj

let object_count t = t.n_objects

let obj t id =
  if id < 0 || id >= t.n_objects then invalid_arg "World.obj: id out of range";
  t.objects.(id)

let subscribe t listener = t.listeners <- listener :: t.listeners

(* The single mutation point for sensed state: notifies the sensors,
   which filter by their own range. *)
let set_attr t obj_id attr value =
  let o = obj t obj_id in
  let old_value = World_object.get_attr o attr in
  World_object.set_attr_raw o attr value;
  let change =
    { time = Engine.now t.engine; obj = obj_id; attr; old_value; new_value = value }
  in
  List.iter (fun listener -> listener change) t.listeners

let get_attr t obj_id attr = World_object.get_attr (obj t obj_id) attr
