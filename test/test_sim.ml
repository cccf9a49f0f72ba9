(* Tests for psn_sim: simulated time, the event engine, delay and loss
   models. *)

module Sim_time = Psn_sim.Sim_time
module Engine = Psn_sim.Engine
module Delay_model = Psn_sim.Delay_model
module Loss_model = Psn_sim.Loss_model
module Rng = Psn_util.Rng

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let time = Alcotest.testable Sim_time.pp Sim_time.equal

(* --- Sim_time --- *)

let test_time_units () =
  Alcotest.check time "us" (Sim_time.of_ns 1_000) (Sim_time.of_us 1);
  Alcotest.check time "ms" (Sim_time.of_us 1_000) (Sim_time.of_ms 1);
  Alcotest.check time "sec" (Sim_time.of_ms 1_000) (Sim_time.of_sec 1);
  Alcotest.check time "sec float" (Sim_time.of_ms 1_500)
    (Sim_time.of_sec_float 1.5);
  Alcotest.(check (float 1e-9)) "roundtrip" 2.25
    (Sim_time.to_sec_float (Sim_time.of_sec_float 2.25))

let test_time_arith () =
  let a = Sim_time.of_ms 300 and b = Sim_time.of_ms 200 in
  Alcotest.check time "add" (Sim_time.of_ms 500) (Sim_time.add a b);
  Alcotest.check time "sub" (Sim_time.of_ms 100) (Sim_time.sub a b);
  Alcotest.check time "min" b (Sim_time.min a b);
  Alcotest.check time "max" a (Sim_time.max a b);
  Alcotest.check time "scale" (Sim_time.of_ms 600) (Sim_time.scale a 2.0);
  Alcotest.(check bool) "lt" true Sim_time.(b < a);
  Alcotest.(check bool) "negative" true
    (Sim_time.is_negative (Sim_time.sub b a))

let test_time_invalid () =
  Alcotest.check_raises "negative ns" (Invalid_argument "Sim_time.of_ns: negative")
    (fun () -> ignore (Sim_time.of_ns (-1)))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Sim_time.to_string (Sim_time.of_ns 500));
  Alcotest.(check string) "us" "1.5us" (Sim_time.to_string (Sim_time.of_ns 1_500));
  Alcotest.(check string) "ms" "2.0ms" (Sim_time.to_string (Sim_time.of_ms 2));
  Alcotest.(check string) "s" "3.000s" (Sim_time.to_string (Sim_time.of_sec 3))

(* --- Engine --- *)

let test_engine_ordering () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule_at engine (Sim_time.of_ms 20) (fun () -> log := 2 :: !log));
  ignore (Engine.schedule_at engine (Sim_time.of_ms 10) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule_at engine (Sim_time.of_ms 30) (fun () -> log := 3 :: !log));
  Engine.run engine;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "processed" 3 (Engine.events_processed engine)

let test_engine_fifo_same_time () =
  let engine = Engine.create () in
  let log = ref [] in
  let t = Sim_time.of_ms 5 in
  for i = 1 to 5 do
    ignore (Engine.schedule_at engine t (fun () -> log := i :: !log))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_now_advances () =
  let engine = Engine.create () in
  let seen = ref Sim_time.zero in
  ignore (Engine.schedule_at engine (Sim_time.of_ms 7) (fun () -> seen := Engine.now engine));
  Engine.run engine;
  Alcotest.check time "now in callback" (Sim_time.of_ms 7) !seen

let test_engine_schedule_after () =
  let engine = Engine.create () in
  let fired = ref Sim_time.zero in
  ignore
    (Engine.schedule_at engine (Sim_time.of_ms 10) (fun () ->
         ignore
           (Engine.schedule_after engine (Sim_time.of_ms 5) (fun () ->
                fired := Engine.now engine))));
  Engine.run engine;
  Alcotest.check time "relative" (Sim_time.of_ms 15) !fired

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at engine (Sim_time.of_ms 1) (fun () -> fired := true) in
  Engine.cancel h;
  Alcotest.(check bool) "cancelled flag" true (Engine.cancelled h);
  Engine.run engine;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "not counted" 0 (Engine.events_processed engine)

(* Fast-path twin of the ordering tests: the [_unit] variants must share
   the seq space (FIFO ties across both paths), the processed count, and
   the scheduled metric with the handle path. *)
let test_engine_schedule_unit () =
  let engine = Engine.create () in
  let order = ref [] in
  Engine.schedule_at_unit engine (Sim_time.of_ms 2) (fun () -> order := 2 :: !order);
  Engine.schedule_at_unit engine (Sim_time.of_ms 1) (fun () -> order := 1 :: !order);
  Engine.schedule_after_unit engine (Sim_time.of_ms 3) (fun () ->
      order := 3 :: !order);
  Engine.run engine;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check int) "processed" 3 (Engine.events_processed engine);
  let scheduled =
    Psn_obs.Metrics.counter (Engine.metrics engine) "engine.scheduled"
  in
  Alcotest.(check int) "scheduled metric" 3
    (Psn_obs.Metrics.counter_value scheduled)

let test_engine_unit_fifo_interleaved () =
  let engine = Engine.create () in
  let order = ref [] in
  let at = Sim_time.of_ms 1 in
  ignore (Engine.schedule_at engine at (fun () -> order := "a" :: !order));
  Engine.schedule_at_unit engine at (fun () -> order := "b" :: !order);
  ignore (Engine.schedule_at engine at (fun () -> order := "c" :: !order));
  Engine.run engine;
  Alcotest.(check (list string)) "FIFO across both scheduling paths"
    [ "a"; "b"; "c" ] (List.rev !order)

(* A ranked event runs before every equal-time unranked one, even one
   scheduled earlier, and equal-time ranked events run by rank: the
   order a self-rescheduling generator needs to match events scheduled
   up front. *)
let test_engine_ranked () =
  let engine = Engine.create () in
  let order = ref [] in
  let note s () = order := s :: !order in
  let at = Sim_time.of_ms 5 in
  Engine.schedule_at_unit engine at (note "unranked");
  Engine.schedule_ranked_unit engine at ~rank:2 (note "rank 2");
  Engine.schedule_at_unit engine (Sim_time.of_ms 1) (fun () ->
      note "at 1 ms" ();
      Engine.schedule_ranked_unit engine at ~rank:0 (fun () ->
          note "rank 0" ();
          Engine.schedule_ranked_unit engine at ~rank:0 (note "rank 0 again")));
  Engine.run engine;
  Alcotest.(check (list string)) "ranked before unranked, by rank"
    [ "at 1 ms"; "rank 0"; "rank 0 again"; "rank 2"; "unranked" ]
    (List.rev !order);
  Alcotest.(check int) "processed" 5 (Engine.events_processed engine);
  Alcotest.check_raises "negative rank"
    (Invalid_argument "Event_queue.add_ranked: negative rank") (fun () ->
      Engine.schedule_ranked_unit engine at ~rank:(-1) ignore)

let test_engine_unit_past_raises () =
  let engine = Engine.create () in
  Engine.schedule_at_unit engine (Sim_time.of_ms 10) (fun () -> ());
  Engine.run engine;
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.schedule_at_unit: time is in the past")
    (fun () -> Engine.schedule_at_unit engine (Sim_time.of_ms 5) (fun () -> ()));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_after_unit: negative delay")
    (fun () ->
      Engine.schedule_after_unit engine (Sim_time.sub Sim_time.zero (Sim_time.of_ms 1))
        (fun () -> ()))

(* Cancelling after the event fired must be a no-op: no flag flip, no
   [engine.cancelled] count.  Double-cancel counts once. *)
let test_engine_cancel_after_fire () =
  let engine = Engine.create () in
  let cancelled =
    Psn_obs.Metrics.counter (Engine.metrics engine) "engine.cancelled"
  in
  let h = Engine.schedule_at engine (Sim_time.of_ms 1) (fun () -> ()) in
  Engine.run engine;
  Engine.cancel h;
  Alcotest.(check bool) "not marked cancelled" false (Engine.cancelled h);
  Alcotest.(check int) "metric untouched" 0
    (Psn_obs.Metrics.counter_value cancelled);
  let h2 = Engine.schedule_at engine (Sim_time.of_ms 2) (fun () -> ()) in
  Engine.cancel h2;
  Engine.cancel h2;
  Alcotest.(check int) "real cancellation counted once" 1
    (Psn_obs.Metrics.counter_value cancelled);
  Engine.run engine;
  Alcotest.(check int) "only first event processed" 1
    (Engine.events_processed engine)

let test_engine_past_raises () =
  let engine = Engine.create () in
  ignore (Engine.schedule_at engine (Sim_time.of_ms 10) (fun () -> ()));
  Engine.run engine;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time is in the past")
    (fun () -> ignore (Engine.schedule_at engine (Sim_time.of_ms 5) (fun () -> ())))

let test_engine_horizon () =
  let engine = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at engine (Sim_time.of_ms 10) (fun () -> incr fired));
  ignore (Engine.schedule_at engine (Sim_time.of_sec 10) (fun () -> incr fired));
  Engine.run ~until:(Sim_time.of_sec 1) engine;
  Alcotest.(check int) "only one fired" 1 !fired;
  Alcotest.check time "clock at horizon" (Sim_time.of_sec 1) (Engine.now engine);
  Alcotest.(check int) "one pending" 1 (Engine.pending engine)

(* An event lowers the running horizon: the run stops after the events
   at or before it and the clock ends there; a second call only counts
   when it is lower; the next run sets its own horizon again. *)
let test_engine_lower_horizon () =
  let engine = Engine.create () in
  let fired = ref [] in
  let at ms =
    Engine.schedule_at_unit engine (Sim_time.of_ms ms) (fun () ->
        fired := ms :: !fired)
  in
  Engine.schedule_at_unit engine (Sim_time.of_ms 10) (fun () ->
      fired := 10 :: !fired;
      Engine.lower_horizon engine (Sim_time.of_ms 30);
      Engine.lower_horizon engine (Sim_time.of_ms 50));
  List.iter at [ 20; 30; 40; 600 ];
  Engine.run ~until:(Sim_time.of_sec 1) engine;
  Alcotest.(check (list int)) "stopped after 30 ms" [ 10; 20; 30 ]
    (List.rev !fired);
  Alcotest.check time "clock at the lowered horizon" (Sim_time.of_ms 30)
    (Engine.now engine);
  Engine.run ~until:(Sim_time.of_sec 1) engine;
  Alcotest.(check (list int)) "next run reaches its own horizon"
    [ 10; 20; 30; 40; 600 ] (List.rev !fired);
  Alcotest.check time "clock at the horizon" (Sim_time.of_sec 1)
    (Engine.now engine)

let test_engine_step () =
  let engine = Engine.create () in
  ignore (Engine.schedule_at engine (Sim_time.of_ms 1) (fun () -> ()));
  Alcotest.(check bool) "step true" true (Engine.step engine);
  Alcotest.(check bool) "step false" false (Engine.step engine)

let test_engine_periodic () =
  let engine = Engine.create () in
  let count = ref 0 in
  ignore
    (Engine.schedule_periodic engine ~start:(Sim_time.of_ms 10)
       ~period:(Sim_time.of_ms 10)
       ~until:(Sim_time.of_ms 100)
       (fun () ->
         incr count;
         true));
  Engine.run engine;
  Alcotest.(check int) "10 firings" 10 !count

let test_engine_periodic_stop () =
  let engine = Engine.create () in
  let count = ref 0 in
  ignore
    (Engine.schedule_periodic engine ~start:(Sim_time.of_ms 10)
       ~period:(Sim_time.of_ms 10) (fun () ->
         incr count;
         !count < 3));
  Engine.run engine;
  Alcotest.(check int) "stopped after 3" 3 !count

let test_engine_periodic_cancel () =
  let engine = Engine.create () in
  let count = ref 0 in
  let h =
    Engine.schedule_periodic engine ~start:(Sim_time.of_ms 10)
      ~period:(Sim_time.of_ms 10) (fun () ->
        incr count;
        true)
  in
  ignore
    (Engine.schedule_at engine (Sim_time.of_ms 35) (fun () -> Engine.cancel h));
  Engine.run ~until:(Sim_time.of_sec 1) engine;
  Alcotest.(check int) "cancelled after 3" 3 !count

let test_engine_scenario_rng_stable () =
  (* Protocol draws from [rng] must not perturb [scenario_rng]. *)
  let e1 = Engine.create ~seed:5L () in
  let e2 = Engine.create ~seed:5L () in
  for _ = 1 to 50 do
    ignore (Rng.int64 (Engine.rng e1))
  done;
  Alcotest.(check int64) "same scenario stream"
    (Rng.int64 (Engine.scenario_rng e1))
    (Rng.int64 (Engine.scenario_rng e2))

(* --- Delay models --- *)

let test_delay_synchronous () =
  let rng = Rng.create () in
  for _ = 1 to 10 do
    Alcotest.check time "zero" Sim_time.zero
      (Delay_model.sample Delay_model.synchronous rng)
  done;
  Alcotest.(check (option time)) "delta 0" (Some Sim_time.zero)
    (Delay_model.delta Delay_model.synchronous)

let test_delay_bounded_uniform =
  qtest "delay: uniform within bounds" QCheck.int (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let m = Delay_model.bounded_uniform ~min:(Sim_time.of_ms 10) ~max:(Sim_time.of_ms 50) in
      let d = Delay_model.sample m rng in
      Sim_time.(d >= Sim_time.of_ms 10) && Sim_time.(d <= Sim_time.of_ms 50))

let test_delay_bounded_exponential =
  qtest "delay: capped exponential within cap" QCheck.int (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let m =
        Delay_model.bounded_exponential ~mean:(Sim_time.of_ms 20)
          ~cap:(Sim_time.of_ms 100)
      in
      Sim_time.(Delay_model.sample m rng <= Sim_time.of_ms 100))

let test_delay_delta () =
  let b = Delay_model.bounded_uniform ~min:Sim_time.zero ~max:(Sim_time.of_ms 7) in
  Alcotest.(check (option time)) "bounded delta" (Some (Sim_time.of_ms 7))
    (Delay_model.delta b);
  let u = Delay_model.unbounded_exponential ~mean:(Sim_time.of_ms 5) in
  Alcotest.(check (option time)) "unbounded" None (Delay_model.delta u)

let test_delay_mean () =
  let b = Delay_model.bounded_uniform ~min:(Sim_time.of_ms 10) ~max:(Sim_time.of_ms 30) in
  Alcotest.check time "uniform mean" (Sim_time.of_ms 20) (Delay_model.mean_delay b)

let test_delay_invalid () =
  Alcotest.check_raises "max<min"
    (Invalid_argument "Delay_model.bounded_uniform: max < min") (fun () ->
      ignore
        (Delay_model.bounded_uniform ~min:(Sim_time.of_ms 5) ~max:(Sim_time.of_ms 1)))

(* --- Loss models --- *)

let test_loss_none () =
  let rng = Rng.create () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "never drops" false
      (Loss_model.drops Loss_model.no_loss rng)
  done

let test_loss_bernoulli_rate () =
  let rng = Rng.create ~seed:6L () in
  let m = Loss_model.bernoulli 0.3 in
  let drops = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Loss_model.drops m rng then incr drops
  done;
  let rate = float_of_int !drops /. float_of_int n in
  Alcotest.(check bool) "rate ~ 0.3" true (Float.abs (rate -. 0.3) < 0.01);
  Alcotest.(check (float 1e-9)) "expected" 0.3 (Loss_model.expected_loss_rate m)

let test_loss_bernoulli_invalid () =
  Alcotest.check_raises "p>1" (Invalid_argument "Loss_model.bernoulli: p out of range")
    (fun () -> ignore (Loss_model.bernoulli 1.5))

let test_delay_unbounded_positive =
  qtest "delay: unbounded samples are non-negative" QCheck.int (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let p = Delay_model.unbounded_pareto ~scale:(Sim_time.of_ms 5) ~shape:1.5 in
      let e = Delay_model.unbounded_exponential ~mean:(Sim_time.of_ms 5) in
      (not (Sim_time.is_negative (Delay_model.sample p rng)))
      && not (Sim_time.is_negative (Delay_model.sample e rng)))

let test_delay_pp_smoke () =
  let models =
    [
      Delay_model.synchronous;
      Delay_model.bounded_uniform ~min:Sim_time.zero ~max:(Sim_time.of_ms 5);
      Delay_model.bounded_exponential ~mean:(Sim_time.of_ms 2) ~cap:(Sim_time.of_ms 9);
      Delay_model.unbounded_exponential ~mean:(Sim_time.of_ms 2);
      Delay_model.unbounded_pareto ~scale:(Sim_time.of_ms 1) ~shape:2.0;
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "prints" true (String.length (Fmt.str "%a" Delay_model.pp m) > 0))
    models

let test_loss_pp_smoke () =
  let models =
    [
      Loss_model.no_loss;
      Loss_model.bernoulli 0.1;
      Loss_model.gilbert_elliott ~p_good_to_bad:0.1 ~p_bad_to_good:0.2
        ~loss_good:0.0 ~loss_bad:0.5;
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "prints" true (String.length (Fmt.str "%a" Loss_model.pp m) > 0))
    models

(* Differential test: [Event_queue] against the generic [Heap], kept in
   test/ as its reference, over the same random push/pop sequence.
   Times are drawn from a tiny range so most keys collide and the FIFO
   seq tie-break carries the ordering; payloads carry a cancelled flag
   that both sides skip on pop, mirroring the engine's lazy
   cancellation. *)
let test_queue_differential =
  qtest ~count:100 "event_queue: differential vs reference heap" QCheck.int
    (fun seed ->
      let module Q = Psn_sim.Event_queue in
      let module H = Heap in
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let cancelled = Hashtbl.create 16 in
      let q = Q.create ~dummy:(-1) () in
      let href =
        H.create
          ~cmp:(fun (t1, s1, _) (t2, s2, _) ->
            if t1 <> t2 then compare t1 t2 else compare s1 s2)
          ~dummy:(0, 0, 0) ()
      in
      let seq = ref 0 and id = ref 0 in
      let ok = ref true in
      let push () =
        let t = Rng.int rng 8 in
        let x = !id in
        incr id;
        if Rng.int rng 5 = 0 then Hashtbl.replace cancelled x ();
        Q.add q ~time_ns:t x;
        H.add href (t, !seq, x);
        incr seq
      in
      (* Pop one *live* element from each side, skipping cancelled ids
         exactly as the engine drain does. *)
      let rec pop_live_q () =
        if Q.is_empty q then None
        else
          let t = Q.min_time_ns q in
          let x = Q.pop_exn q in
          if Hashtbl.mem cancelled x then pop_live_q () else Some (t, x)
      in
      let rec pop_live_ref () =
        match H.pop href with
        | None -> None
        | Some (t, _, x) ->
            if Hashtbl.mem cancelled x then pop_live_ref () else Some (t, x)
      in
      let check_pop () =
        match (pop_live_q (), pop_live_ref ()) with
        | None, None -> ()
        | Some (tq, xq), Some (tr, xr) ->
            if tq <> tr || xq <> xr then ok := false
        | _ -> ok := false
      in
      for _ = 1 to 400 do
        if Rng.int rng 3 < 2 then push () else check_pop ()
      done;
      while not (Q.is_empty q) do
        check_pop ()
      done;
      (* Reference may still hold cancelled-only residue. *)
      (match pop_live_ref () with Some _ -> ok := false | None -> ());
      !ok)

let test_engine_pending () =
  let engine = Engine.create () in
  Alcotest.(check int) "empty" 0 (Engine.pending engine);
  ignore (Engine.schedule_at engine (Sim_time.of_ms 1) (fun () -> ()));
  ignore (Engine.schedule_at engine (Sim_time.of_ms 2) (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Engine.pending engine);
  ignore (Engine.step engine);
  Alcotest.(check int) "one left" 1 (Engine.pending engine)

let test_time_scale_invalid () =
  Alcotest.check_raises "negative factor"
    (Invalid_argument "Sim_time.scale: negative factor") (fun () ->
      ignore (Sim_time.scale (Sim_time.of_ms 1) (-1.0)))

let test_loss_gilbert_elliott () =
  let rng = Rng.create ~seed:8L () in
  let m =
    Loss_model.gilbert_elliott ~p_good_to_bad:0.1 ~p_bad_to_good:0.3
      ~loss_good:0.01 ~loss_bad:0.5
  in
  let drops = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Loss_model.drops m rng then incr drops
  done;
  let rate = float_of_int !drops /. float_of_int n in
  let expected = Loss_model.expected_loss_rate m in
  Alcotest.(check bool) "rate near expected" true (Float.abs (rate -. expected) < 0.02)

let () =
  Alcotest.run "psn_sim"
    [
      ( "sim_time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arith" `Quick test_time_arith;
          Alcotest.test_case "invalid" `Quick test_time_invalid;
          Alcotest.test_case "pp" `Quick test_time_pp;
          Alcotest.test_case "scale invalid" `Quick test_time_scale_invalid;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "now advances" `Quick test_engine_now_advances;
          Alcotest.test_case "schedule_after" `Quick test_engine_schedule_after;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "schedule_at_unit" `Quick test_engine_schedule_unit;
          Alcotest.test_case "unit fifo interleaved" `Quick
            test_engine_unit_fifo_interleaved;
          Alcotest.test_case "unit past raises" `Quick
            test_engine_unit_past_raises;
          Alcotest.test_case "ranked ties" `Quick test_engine_ranked;
          Alcotest.test_case "cancel after fire" `Quick
            test_engine_cancel_after_fire;
          Alcotest.test_case "past raises" `Quick test_engine_past_raises;
          test_queue_differential;
          Alcotest.test_case "horizon" `Quick test_engine_horizon;
          Alcotest.test_case "lowered horizon" `Quick
            test_engine_lower_horizon;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "periodic" `Quick test_engine_periodic;
          Alcotest.test_case "periodic stop" `Quick test_engine_periodic_stop;
          Alcotest.test_case "periodic cancel" `Quick test_engine_periodic_cancel;
          Alcotest.test_case "scenario rng stable" `Quick test_engine_scenario_rng_stable;
          Alcotest.test_case "pending" `Quick test_engine_pending;
        ] );
      ( "delay",
        [
          Alcotest.test_case "synchronous" `Quick test_delay_synchronous;
          test_delay_bounded_uniform;
          test_delay_bounded_exponential;
          test_delay_unbounded_positive;
          Alcotest.test_case "delta" `Quick test_delay_delta;
          Alcotest.test_case "mean" `Quick test_delay_mean;
          Alcotest.test_case "invalid" `Quick test_delay_invalid;
          Alcotest.test_case "pp" `Quick test_delay_pp_smoke;
        ] );
      ( "loss",
        [
          Alcotest.test_case "none" `Quick test_loss_none;
          Alcotest.test_case "bernoulli rate" `Quick test_loss_bernoulli_rate;
          Alcotest.test_case "bernoulli invalid" `Quick test_loss_bernoulli_invalid;
          Alcotest.test_case "gilbert-elliott" `Quick test_loss_gilbert_elliott;
          Alcotest.test_case "pp" `Quick test_loss_pp_smoke;
        ] );
    ]
