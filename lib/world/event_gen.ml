(* Generators of world-plane activity.

   The paper's execution model is event-driven: "an event occurs whenever
   a monitored value, whether discrete or continuous, changes
   significantly" (§2.2).  These helpers schedule such changes: Poisson
   arrivals for rare discrete events, periodic samples, bounded random
   walks for continuous attributes like temperature, and two-state
   occupancy toggles for motion. *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Rng = Psn_util.Rng

(* Poisson process of attribute updates: inter-arrival exponential with
   rate [rate_per_sec]; each update's value comes from [value]. *)
let poisson_updates engine world rng ~obj ~attr ~rate_per_sec ~value ~until =
  if rate_per_sec <= 0.0 then invalid_arg "Event_gen.poisson_updates: rate";
  let mean = 1.0 /. rate_per_sec in
  let rec next () =
    let wait = Rng.exponential rng ~mean in
    Engine.schedule_after_unit engine (Sim_time.of_sec_float wait) (fun () ->
           if Sim_time.( < ) (Engine.now engine) until then begin
             World.set_attr world obj attr (value rng);
             next ()
           end)
  in
  next ()

(* Bounded random walk for a continuous attribute (e.g. temperature):
   every [period], move by N(0, sigma) clamped to [lo, hi], but only write
   (= emit a world event) when the change since the last written value
   exceeds [threshold] — the paper's "changes significantly". *)
let random_walk_float engine world rng ~obj ~attr ~init ~sigma ~lo ~hi
    ~threshold ~period ~until =
  if lo > hi then invalid_arg "Event_gen.random_walk_float: lo > hi";
  World.set_attr world obj attr (Value.Float init);
  let current = ref init and last_written = ref init in
  ignore
    (Engine.schedule_periodic engine ~until ~start:period ~period (fun () ->
         let step = Rng.gaussian rng ~mu:0.0 ~sigma in
         current := Float.min hi (Float.max lo (!current +. step));
         if Float.abs (!current -. !last_written) >= threshold then begin
           last_written := !current;
           World.set_attr world obj attr (Value.Float !current)
         end;
         true))

(* Alternating boolean attribute (motion detected / not detected) with
   exponentially distributed phase durations. *)
let toggle_bool engine world rng ~obj ~attr ~init ~mean_true_s ~mean_false_s
    ~until =
  World.set_attr world obj attr (Value.Bool init);
  let rec flip state =
    let mean = if state then mean_true_s else mean_false_s in
    let wait = Rng.exponential rng ~mean in
    Engine.schedule_after_unit engine (Sim_time.of_sec_float wait) (fun () ->
           if Sim_time.( < ) (Engine.now engine) until then begin
             let state = not state in
             World.set_attr world obj attr (Value.Bool state);
             flip state
           end)
  in
  flip init
