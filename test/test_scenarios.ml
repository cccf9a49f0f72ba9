(* Tests for psn_scenarios: each of the paper's application scenarios runs
   end to end with sane accuracy under benign conditions. *)

module Sim_time = Psn_sim.Sim_time
module Hall = Psn_scenarios.Exhibition_hall
module Office = Psn_scenarios.Smart_office
module Hospital = Psn_scenarios.Hospital
module Habitat = Psn_scenarios.Habitat
module Metrics = Psn_detection.Metrics

let benign_config ~n =
  {
    Psn.Config.default with
    n;
    horizon = Sim_time.of_sec 3600;
    delay =
      Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 5)
        ~max:(Sim_time.of_ms 50);
    seed = 17L;
  }

(* --- Exhibition hall --- *)

let test_hall_runs_accurately () =
  let cfg = Hall.default in
  let report = Hall.run ~cfg (benign_config ~n:cfg.Hall.doors) in
  let s = Psn.Report.summary report in
  Alcotest.(check bool) "occupancy crossings happen" true
    (s.Metrics.truth_count > 5);
  Alcotest.(check bool) "recall > 0.9" true (s.Metrics.recall > 0.9);
  Alcotest.(check bool) "precision > 0.9" true (s.Metrics.precision > 0.9)

let test_hall_predicate_relational () =
  let cfg = Hall.default in
  Alcotest.(check bool) "relational" false
    (Psn_predicates.Expr.is_conjunctive (Hall.predicate cfg));
  Alcotest.(check int) "init covers 2 vars per door" (2 * cfg.Hall.doors)
    (List.length (Hall.init cfg))

let test_hall_deterministic () =
  let cfg = Hall.default in
  let a = Psn.Report.summary (Hall.run ~cfg (benign_config ~n:4)) in
  let b = Psn.Report.summary (Hall.run ~cfg (benign_config ~n:4)) in
  Alcotest.(check bool) "same seed, same run" true (a = b)

let test_hall_conservation () =
  (* Ground truth sanity: occupancy never negative under the oracle. *)
  let cfg = { Hall.default with visitors = 10; capacity = 3 } in
  let report = Hall.run ~cfg (benign_config ~n:cfg.Hall.doors) in
  Alcotest.(check bool) "truth intervals disjoint and ordered" true
    (let rec ok = function
       | a :: (b : Psn_detection.Ground_truth.interval) :: rest ->
           Sim_time.( <= ) a.Psn_detection.Ground_truth.t_end
             b.Psn_detection.Ground_truth.t_start
           && ok (b :: rest)
       | _ -> true
     in
     ok (Psn.Report.truth report))

(* E9 runs each seed once and scores it under every borderline policy:
   that is sound only while the policy feeds nothing but the scoring.
   Under racing traffic (E9's hall, strobe vectors, Δ = 500 ms) each
   policy's run must equal the As_positive run re-scored. *)
let test_hall_policy_only_scores () =
  let cfg = { Hall.doors = 6; capacity = 24; visitors = 48; dwell_mean = 15.0 } in
  let config =
    {
      Psn.Config.default with
      n = cfg.Hall.doors;
      clock = Psn_clocks.Clock_kind.Strobe_vector;
      delay =
        Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 50)
          ~max:(Sim_time.of_ms 500);
      horizon = Sim_time.of_sec 1800;
      seed = 11L;
    }
  in
  let base = Hall.run ~cfg config in
  Alcotest.(check bool) "races reach the borderline bin" true
    ((Psn.Report.summary base).Metrics.borderline > 0);
  List.iter
    (fun (name, policy) ->
      let rescored =
        Metrics.score ~tolerance:config.tolerance ~policy
          ~truth:(Psn.Report.truth base)
          ~detections:(Psn.Report.occurrences base) ()
      in
      let run = Psn.Report.summary (Hall.run ~cfg ~policy config) in
      Alcotest.(check bool) name true (compare run rescored = 0))
    [
      ("as positive", Metrics.As_positive);
      ("as negative", Metrics.As_negative);
      ("dropped", Metrics.Drop);
    ]

(* E1's hall at Δ = 20 s under every clock, pinned.  Updates wait out a
   20 s hold-back, so flushes defer ready updates behind smaller held
   stamps and rises race: the vector and HLC rows fill the borderline
   bin and the scalar strobes admit false positives.  Any change to the
   hold-back's linearization or its race analysis moves a row. *)
let test_hall_race_fingerprint () =
  let cfg = { Hall.doors = 4; capacity = 15; visitors = 32; dwell_mean = 30.0 } in
  let delta = Sim_time.of_sec 20 in
  let row clock =
    let report =
      Hall.run ~cfg
        {
          Psn.Config.default with
          n = cfg.Hall.doors;
          clock;
          delay =
            Psn_sim.Delay_model.bounded_uniform
              ~min:(Sim_time.scale delta 0.1) ~max:delta;
          horizon = Sim_time.of_sec 1200;
          seed = 11L;
        }
    in
    let s = Psn.Report.summary report in
    let detect_ns =
      List.fold_left
        (fun acc o ->
          acc + Sim_time.to_ns o.Psn_detection.Occurrence.detect_time)
        0 (Psn.Report.occurrences report)
    in
    Printf.sprintf
      "tp=%d fp=%d fn=%d border=%d msgs=%d words=%d events=%d detect_ns=%d"
      s.Metrics.tp s.fp s.fn s.borderline report.Psn.Report.messages
      report.words report.sim_events detect_ns
  in
  let module C = Psn_clocks.Clock_kind in
  List.iter
    (fun (clock, expected) ->
      Alcotest.(check string) (C.to_string clock) expected (row clock))
    [
      ( C.Perfect_physical,
        "tp=99 fp=0 fn=1 border=0 msgs=3876 words=11628 events=7694 \
         detect_ns=55343496118809" );
      ( C.Synced_physical { eps = Sim_time.of_ms 1 },
        "tp=99 fp=0 fn=1 border=0 msgs=3876 words=11628 events=7694 \
         detect_ns=55343595118809" );
      ( C.Logical_scalar,
        "tp=4 fp=4 fn=96 border=8 msgs=972 words=2916 events=4817 \
         detect_ns=1418208409589" );
      ( C.Logical_vector,
        "tp=4 fp=3 fn=96 border=8 msgs=972 words=5832 events=4817 \
         detect_ns=4883314935625" );
      ( C.Strobe_scalar,
        "tp=45 fp=46 fn=55 border=83 msgs=3876 words=11628 events=7699 \
         detect_ns=66279958137976" );
      ( C.Strobe_vector,
        "tp=48 fp=49 fn=52 border=130 msgs=3876 words=23256 events=7699 \
         detect_ns=85426547731355" );
      ( C.Physical_vector,
        "tp=84 fp=9 fn=16 border=0 msgs=3876 words=11628 events=7694 \
         detect_ns=52386286563196" );
      ( C.Hybrid_logical
          { max_offset = Sim_time.of_ms 250; max_drift_ppm = 100.0 },
        "tp=74 fp=14 fn=26 border=33 msgs=3876 words=15504 events=7694 \
         detect_ns=61655426195622" );
    ]

(* --- Smart office --- *)

let test_office_runs () =
  let cfg = { Office.default with temp_init = 29.5 } in
  let report = Office.run ~cfg (benign_config ~n:(Office.n_processes cfg)) in
  let s = Psn.Report.summary report in
  Alcotest.(check bool) "occurrences" true (s.Metrics.truth_count > 0);
  Alcotest.(check bool) "recall" true (s.Metrics.recall > 0.85)

let test_office_thermostat_feedback () =
  let base = { Office.default with temp_init = 29.5 } in
  let without =
    Psn.Report.summary
      (Office.run ~cfg:base (benign_config ~n:2))
  in
  let with_thermo =
    Psn.Report.summary
      (Office.run ~cfg:{ base with thermostat = true } (benign_config ~n:2))
  in
  (* Actuation resets temperature, so φ recurs more often. *)
  Alcotest.(check bool) "thermostat creates occurrences" true
    (with_thermo.Metrics.truth_count >= without.Metrics.truth_count)

let test_office_definitely () =
  let cfg = { Office.default with temp_init = 29.5 } in
  let report =
    Office.run ~cfg ~modality:Psn_predicates.Modality.Definitely
      (benign_config ~n:2)
  in
  let s = Psn.Report.summary report in
  Alcotest.(check bool) "precision 1.0" true (s.Metrics.precision > 0.999);
  Alcotest.(check bool) "decent recall" true (s.Metrics.recall > 0.8)

let test_office_extra_sensors () =
  let cfg = { Office.default with extra_sensors = 2; temp_init = 29.5 } in
  Alcotest.(check int) "n" 4 (Office.n_processes cfg);
  let report = Office.run ~cfg (benign_config ~n:4) in
  (* Humidity sensors add strobe traffic but don't affect the predicate. *)
  Alcotest.(check bool) "runs" true (report.Psn.Report.updates > 0)

(* --- Hospital --- *)

let test_hospital_runs () =
  let cfg = { Hospital.default with visitors = 8 } in
  let report = Hospital.run ~cfg (benign_config ~n:(Hospital.n_processes cfg)) in
  let s = Psn.Report.summary report in
  Alcotest.(check bool) "coincidences" true (s.Metrics.truth_count > 0);
  Alcotest.(check bool) "recall" true (s.Metrics.recall > 0.8);
  Alcotest.(check bool) "conjunctive" true
    (Psn_predicates.Expr.is_conjunctive (Hospital.predicate cfg))

let test_hospital_alarm_hook () =
  let cfg = { Hospital.default with visitors = 8; alarm = true } in
  let report = Hospital.run ~cfg (benign_config ~n:(Hospital.n_processes cfg)) in
  Alcotest.(check bool) "detections ring the bell" true
    (List.length (Psn.Report.occurrences report) > 0)

(* --- Habitat --- *)

let test_habitat_coverage_monotone () =
  let run ms =
    Habitat.run
      { Habitat.default with
        event_duration = Sim_time.of_ms ms;
        horizon = Sim_time.of_sec 3600 }
  in
  let short = run 50 and long = run 2000 in
  Alcotest.(check bool) "events happened" true (short.Habitat.events > 0);
  Alcotest.(check bool) "same events same seed" true
    (short.Habitat.events = long.Habitat.events);
  Alcotest.(check bool) "longer events covered better" true
    (long.Habitat.mean_coverage > short.Habitat.mean_coverage);
  Alcotest.(check bool) "full coverage when duration >> delay" true
    (long.Habitat.full_coverage = long.Habitat.events)

let test_habitat_loss_hurts () =
  let base = { Habitat.default with horizon = Sim_time.of_sec 3600 } in
  let clean = Habitat.run base in
  let lossy =
    Habitat.run { base with loss = Psn_sim.Loss_model.bernoulli 0.5 }
  in
  Alcotest.(check bool) "loss reduces coverage" true
    (lossy.Habitat.mean_coverage < clean.Habitat.mean_coverage)

let test_habitat_invalid () =
  Alcotest.check_raises "one node"
    (Invalid_argument "Habitat.run: need at least two nodes") (fun () ->
      ignore (Habitat.run { Habitat.default with nodes = 1 }))

(* --- Banking --- *)

module Banking = Psn_scenarios.Banking

let test_banking_catches_attacks () =
  let cfg =
    { Banking.default with eps = Sim_time.of_ms 1;
      horizon = Sim_time.of_sec 7200 }
  in
  let r = Banking.run cfg in
  Alcotest.(check bool) "sessions ran" true (r.Banking.logins > 10);
  Alcotest.(check bool) "attacks injected" true (r.Banking.attacks > 0);
  Alcotest.(check bool) "oracle flags some" true (r.Banking.oracle_alarms > 0);
  (* With millisecond skew and a 30s window, the online checker agrees
     with the oracle almost exactly. *)
  Alcotest.(check bool) "near-perfect tp" true
    (r.Banking.alarm_tp >= r.Banking.oracle_alarms - 1);
  Alcotest.(check bool) "no false alarms beyond one" true (r.Banking.alarm_fp <= 1)

let test_banking_skew_hurts () =
  let run eps_ms =
    Banking.run
      { Banking.default with eps = Sim_time.of_ms eps_ms;
        horizon = Sim_time.of_sec 7200 }
  in
  let tight = run 1 and loose = run 20_000 in
  Alcotest.(check bool) "same workload" true
    (tight.Banking.attacks = loose.Banking.attacks);
  Alcotest.(check bool) "big skew misses boundary attacks" true
    (loose.Banking.alarm_fn > tight.Banking.alarm_fn)

let test_banking_deterministic () =
  let r1 = Banking.run Banking.default in
  let r2 = Banking.run Banking.default in
  Alcotest.(check bool) "reproducible" true (r1 = r2)

(* --- Smart pen (§4.1) --- *)

module Smart_pen = Psn_scenarios.Smart_pen

let test_smart_pen_dumb_untrackable () =
  let r = Smart_pen.run ~mode:Smart_pen.Dumb Smart_pen.default in
  Alcotest.(check int) "trajectory length"
    (Smart_pen.default.Smart_pen.hops + 1)
    (List.length r.Smart_pen.trajectory);
  Alcotest.(check bool) "pairs counted" true (r.Smart_pen.pairs > 0);
  (* The dumb pen's moves are covert: some consecutive sightings land at
     readers that never heard of each other, so the causal chain breaks. *)
  Alcotest.(check bool) "causality not fully recovered" true
    (r.Smart_pen.fraction < 1.0)

let test_smart_pen_smart_trackable () =
  let r = Smart_pen.run ~mode:Smart_pen.Smart Smart_pen.default in
  Alcotest.(check (float 1e-9)) "full causal chain" 1.0 r.Smart_pen.fraction

let test_smart_pen_same_trajectory () =
  (* The pen's physical trajectory is scenario randomness: identical in
     both modes for the same seed. *)
  let d = Smart_pen.run ~mode:Smart_pen.Dumb Smart_pen.default in
  let s = Smart_pen.run ~mode:Smart_pen.Smart Smart_pen.default in
  Alcotest.(check (list int)) "same world" d.Smart_pen.trajectory
    s.Smart_pen.trajectory

let () =
  Alcotest.run "psn_scenarios"
    [
      ( "exhibition_hall",
        [
          Alcotest.test_case "accurate" `Quick test_hall_runs_accurately;
          Alcotest.test_case "relational predicate" `Quick
            test_hall_predicate_relational;
          Alcotest.test_case "deterministic" `Quick test_hall_deterministic;
          Alcotest.test_case "truth sane" `Quick test_hall_conservation;
          Alcotest.test_case "race fingerprint" `Quick
            test_hall_race_fingerprint;
          Alcotest.test_case "policy only scores" `Quick
            test_hall_policy_only_scores;
        ] );
      ( "smart_office",
        [
          Alcotest.test_case "runs" `Quick test_office_runs;
          Alcotest.test_case "thermostat feedback" `Quick
            test_office_thermostat_feedback;
          Alcotest.test_case "definitely" `Quick test_office_definitely;
          Alcotest.test_case "extra sensors" `Quick test_office_extra_sensors;
        ] );
      ( "hospital",
        [
          Alcotest.test_case "runs" `Quick test_hospital_runs;
          Alcotest.test_case "alarm hook" `Quick test_hospital_alarm_hook;
        ] );
      ( "habitat",
        [
          Alcotest.test_case "coverage monotone" `Quick test_habitat_coverage_monotone;
          Alcotest.test_case "loss hurts" `Quick test_habitat_loss_hurts;
          Alcotest.test_case "invalid" `Quick test_habitat_invalid;
        ] );
      ( "banking",
        [
          Alcotest.test_case "catches attacks" `Quick test_banking_catches_attacks;
          Alcotest.test_case "skew hurts" `Quick test_banking_skew_hurts;
          Alcotest.test_case "deterministic" `Quick test_banking_deterministic;
        ] );
      ( "smart_pen",
        [
          Alcotest.test_case "dumb untrackable" `Quick test_smart_pen_dumb_untrackable;
          Alcotest.test_case "smart trackable" `Quick test_smart_pen_smart_trackable;
          Alcotest.test_case "same trajectory" `Quick test_smart_pen_same_trajectory;
        ] );
    ]
