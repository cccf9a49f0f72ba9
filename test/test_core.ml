(* Tests for the psn core library: configuration, the clock/modality
   dispatch matrix, the runner, and reports. *)

module Sim_time = Psn_sim.Sim_time
module Engine = Psn_sim.Engine
module Clock_kind = Psn_clocks.Clock_kind
module Expr = Psn_predicates.Expr
module Modality = Psn_predicates.Modality
module Spec = Psn_predicates.Spec
module Value = Psn_world.Value
module Config = Psn.Config
module Runner = Psn.Runner
module Report = Psn.Report

let ms = Sim_time.of_ms

let conj =
  Expr.(
    (var ~name:"a" ~loc:0 ==? bool true) &&& (var ~name:"b" ~loc:1 ==? bool true))

let init =
  [
    ({ Expr.name = "a"; loc = 0 }, Value.Bool false);
    ({ Expr.name = "b"; loc = 1 }, Value.Bool false);
  ]

let spec modality = Spec.make ~name:"t" ~predicate:conj ~modality

let test_config_hold () =
  let c =
    { Config.default with
      delay = Psn_sim.Delay_model.bounded_uniform ~min:(ms 1) ~max:(ms 40) }
  in
  Alcotest.(check bool) "delta" true
    (Sim_time.equal (Config.effective_hold c) (ms 40));
  let c2 = { c with hold = Some (ms 7) } in
  Alcotest.(check bool) "explicit" true
    (Sim_time.equal (Config.effective_hold c2) (ms 7));
  let c3 =
    { c with delay = Psn_sim.Delay_model.unbounded_exponential ~mean:(ms 10) }
  in
  Alcotest.(check bool) "2x mean for unbounded" true
    (Sim_time.equal (Config.effective_hold c3) (ms 20))

let test_dispatch_supported () =
  let engine = Engine.create () in
  let config = { Config.default with n = 2 } in
  let supported =
    [
      (Clock_kind.Strobe_vector, Modality.Instantaneous);
      (Clock_kind.Strobe_scalar, Modality.Instantaneous);
      (Clock_kind.Perfect_physical, Modality.Instantaneous);
      (Clock_kind.Synced_physical { eps = ms 1 }, Modality.Instantaneous);
      (Clock_kind.Logical_scalar, Modality.Instantaneous);
      (Clock_kind.Logical_vector, Modality.Instantaneous);
      (Clock_kind.Physical_vector, Modality.Instantaneous);
      ( Clock_kind.Hybrid_logical
          { max_offset = ms 20; max_drift_ppm = 50.0 },
        Modality.Instantaneous );
      (Clock_kind.Strobe_vector, Modality.Definitely);
      (Clock_kind.Logical_vector, Modality.Definitely);
      (Clock_kind.Strobe_vector, Modality.Possibly);
      (Clock_kind.Logical_vector, Modality.Possibly);
    ]
  in
  List.iter
    (fun (clock, modality) ->
      ignore
        (Runner.detector_for ~init { config with clock } engine
           ~spec:(spec modality)))
    supported

let test_dispatch_unsupported () =
  let engine = Engine.create () in
  let config = { Config.default with n = 2 } in
  let unsupported =
    [
      (Clock_kind.Strobe_scalar, Modality.Definitely);
      (Clock_kind.Logical_scalar, Modality.Definitely);
      (Clock_kind.Perfect_physical, Modality.Possibly);
      (Clock_kind.Strobe_scalar, Modality.Possibly);
    ]
  in
  List.iter
    (fun (clock, modality) ->
      Alcotest.(check bool)
        (Clock_kind.to_string clock ^ " rejected")
        true
        (try
           ignore
             (Runner.detector_for ~init { config with clock } engine
                ~spec:(spec modality));
           false
         with Runner.Unsupported _ -> true))
    unsupported

let toggle_setup engine detector =
  let world = Psn_world.World.create engine in
  let rng = Engine.scenario_rng engine in
  for d = 0 to 1 do
    let obj = Psn_world.World.add_object world ~name:(string_of_int d) () in
    let id = Psn_world.World_object.id obj in
    Psn_world.Event_gen.toggle_bool engine world (Psn_util.Rng.split rng)
      ~obj:id
      ~attr:(if d = 0 then "a" else "b")
      ~init:false ~mean_true_s:30.0 ~mean_false_s:30.0
      ~until:(Sim_time.of_sec 3600);
    Psn_network.Sensing.attach engine world
      ~filter:(fun c -> c.Psn_world.World.obj = id)
      (fun c ->
        Psn_detection.Detector.emit detector ~src:d
          ~var:(if d = 0 then "a" else "b")
          c.Psn_world.World.new_value)
  done

let run_once config =
  Runner.run ~init config ~spec:(spec Modality.Instantaneous)
    ~setup:toggle_setup ()

let test_runner_end_to_end () =
  let config =
    {
      Config.default with
      n = 2;
      horizon = Sim_time.of_sec 1800;
      delay = Psn_sim.Delay_model.bounded_uniform ~min:(ms 5) ~max:(ms 20);
      seed = 13L;
    }
  in
  let report = run_once config in
  let s = Report.summary report in
  Alcotest.(check bool) "some truth" true (s.Psn_detection.Metrics.truth_count > 0);
  Alcotest.(check bool) "high recall" true (s.Psn_detection.Metrics.recall > 0.9);
  Alcotest.(check bool) "high precision" true (s.Psn_detection.Metrics.precision > 0.9);
  Alcotest.(check bool) "messages flowed" true (report.Report.messages > 0);
  Alcotest.(check bool) "updates recorded" true (report.Report.updates > 0);
  Alcotest.(check bool) "events simulated" true (report.Report.sim_events > 0)

let test_runner_deterministic () =
  let config =
    { Config.default with n = 2; horizon = Sim_time.of_sec 600; seed = 21L }
  in
  let a = Report.summary (run_once config) in
  let b = Report.summary (run_once config) in
  Alcotest.(check bool) "identical summaries" true (a = b)

let test_runner_seed_changes_world () =
  let config =
    { Config.default with n = 2; horizon = Sim_time.of_sec 1800; seed = 21L }
  in
  let a = Report.summary (run_once config) in
  let b = Report.summary (run_once { config with seed = 22L }) in
  Alcotest.(check bool) "different worlds" true (a <> b)

let test_report_words_per_update () =
  let config =
    { Config.default with n = 2; horizon = Sim_time.of_sec 600; seed = 3L }
  in
  let report = run_once config in
  if report.Report.updates > 0 then
    Alcotest.(check (float 1e-9)) "words/update"
      (float_of_int report.Report.words /. float_of_int report.Report.updates)
      (Report.words_per_update report)

let test_runner_topology () =
  (* Multi-hop strobes work end to end under every broadcast clock;
     unicast baselines refuse.  A 2-node ring is the complete overlay,
     so the ring has 4 nodes: a flood then costs each node one send per
     neighbour, 8 messages per update against 3 on the complete one. *)
  let n = 4 in
  let ring = Psn_util.Graph.ring ~n in
  let config =
    {
      Config.default with
      n;
      horizon = Sim_time.of_sec 900;
      topology = Some ring;
      hold = Some (ms 50);
      delay = Psn_sim.Delay_model.bounded_uniform ~min:(ms 5) ~max:(ms 20);
      seed = 13L;
    }
  in
  let per_flood =
    List.init n (fun v -> List.length (Psn_util.Graph.neighbors ring v))
    |> List.fold_left ( + ) 0
  in
  List.iter
    (fun clock ->
      let name = Clock_kind.to_string clock in
      let report = run_once { config with clock } in
      let s = Report.summary report in
      Alcotest.(check bool)
        (name ^ " detects over ring") true (s.Psn_detection.Metrics.tp > 0);
      Alcotest.(check int) (name ^ " updates") 48 report.Report.updates;
      Alcotest.(check int)
        (name ^ " floods") (per_flood * report.Report.updates)
        report.Report.messages)
    [
      Clock_kind.Strobe_vector;
      Clock_kind.Strobe_scalar;
      Clock_kind.Perfect_physical;
      Clock_kind.Synced_physical { eps = ms 1 };
      Clock_kind.Physical_vector;
      Clock_kind.Hybrid_logical { max_offset = ms 20; max_drift_ppm = 50.0 };
    ];
  (* A lost hop message is a drop on a flooded overlay too, and a flood
     whose copies all die at a node is never relayed from it. *)
  let lossy = run_once { config with loss = Psn_sim.Loss_model.bernoulli 0.3 } in
  Alcotest.(check bool) "lossy ring drops" true (lossy.Report.dropped > 0);
  Alcotest.(check bool)
    "lossy ring relays less" true
    (lossy.Report.messages < per_flood * lossy.Report.updates);
  let engine = Engine.create () in
  List.iter
    (fun clock ->
      Alcotest.(check bool)
        (Clock_kind.to_string clock ^ " refuses topology") true
        (try
           ignore
             (Runner.detector_for ~init { config with clock } engine
                ~spec:(spec Modality.Instantaneous));
           false
         with Runner.Unsupported _ -> true))
    [ Clock_kind.Logical_scalar; Clock_kind.Logical_vector ]

(* Every supported row of the compatibility matrix, pinned: the same
   toggle world under each (clock, modality) pairing must keep its
   score, traffic, event count and summed detection times exactly. *)
let test_matrix_fingerprint () =
  let config =
    {
      Config.default with
      n = 2;
      horizon = Sim_time.of_sec 1800;
      delay = Psn_sim.Delay_model.bounded_uniform ~min:(ms 50) ~max:(ms 400);
      seed = 13L;
    }
  in
  let row clock modality =
    let report =
      Runner.run ~init { config with clock } ~spec:(spec modality)
        ~setup:toggle_setup ()
    in
    let s = Report.summary report in
    let detect_ns =
      List.fold_left
        (fun acc o ->
          acc + Sim_time.to_ns o.Psn_detection.Occurrence.detect_time)
        0 (Report.occurrences report)
    in
    Printf.sprintf "tp=%d fp=%d fn=%d border=%d msgs=%d words=%d events=%d \
                    detect_ns=%d"
      s.Psn_detection.Metrics.tp s.fp s.fn s.borderline report.Report.messages
      report.words report.sim_events detect_ns
  in
  let synced = Clock_kind.Synced_physical { eps = ms 1 } in
  let hlc =
    Clock_kind.Hybrid_logical { max_offset = ms 20; max_drift_ppm = 50.0 }
  in
  let strobe =
    "tp=30 fp=0 fn=0 border=0 msgs=112 words=448 events=448 \
     detect_ns=29296071490662"
  and physical =
    "tp=30 fp=0 fn=0 border=0 msgs=112 words=336 events=448 \
     detect_ns=29295820662966"
  and interval =
    "tp=30 fp=0 fn=0 border=0 msgs=141 words=510 events=366 \
     detect_ns=30664280619640"
  in
  List.iter
    (fun (clock, modality, expected) ->
      Alcotest.(check string)
        (Clock_kind.to_string clock ^ " / " ^ Modality.to_string modality)
        expected (row clock modality))
    [
      (Clock_kind.Strobe_vector, Modality.Instantaneous, strobe);
      ( Clock_kind.Strobe_scalar,
        Modality.Instantaneous,
        "tp=30 fp=0 fn=0 border=0 msgs=112 words=336 events=448 \
         detect_ns=29296071490662" );
      (Clock_kind.Perfect_physical, Modality.Instantaneous, physical);
      ( synced,
        Modality.Instantaneous,
        "tp=30 fp=0 fn=0 border=0 msgs=112 words=336 events=448 \
         detect_ns=29295850662966" );
      ( Clock_kind.Logical_scalar,
        Modality.Instantaneous,
        "tp=30 fp=0 fn=0 border=0 msgs=58 words=174 events=394 \
         detect_ns=29296677036107" );
      ( Clock_kind.Logical_vector,
        Modality.Instantaneous,
        "tp=30 fp=0 fn=0 border=0 msgs=58 words=232 events=394 \
         detect_ns=29296677036107" );
      (Clock_kind.Physical_vector, Modality.Instantaneous, physical);
      ( hlc,
        Modality.Instantaneous,
        "tp=30 fp=0 fn=0 border=0 msgs=112 words=448 events=448 \
         detect_ns=29295820662966" );
      (Clock_kind.Strobe_vector, Modality.Definitely, interval);
      (Clock_kind.Logical_vector, Modality.Definitely, interval);
      (Clock_kind.Strobe_vector, Modality.Possibly, interval);
      (Clock_kind.Logical_vector, Modality.Possibly, interval);
    ]

let test_runner_policy_passthrough () =
  (* Scoring policy flows through Runner.run: under As_negative, the
     borderline detections stop counting as hits. *)
  let config =
    {
      Config.default with
      n = 2;
      horizon = Sim_time.of_sec 1800;
      delay = Psn_sim.Delay_model.bounded_uniform ~min:(ms 200) ~max:(ms 2000);
      seed = 31L;
    }
  in
  let pos =
    Report.summary
      (Runner.run ~init ~policy:Psn_detection.Metrics.As_positive config
         ~spec:(spec Modality.Instantaneous) ~setup:toggle_setup ())
  in
  let neg =
    Report.summary
      (Runner.run ~init ~policy:Psn_detection.Metrics.As_negative config
         ~spec:(spec Modality.Instantaneous) ~setup:toggle_setup ())
  in
  Alcotest.(check int) "same world" pos.Psn_detection.Metrics.truth_count
    neg.Psn_detection.Metrics.truth_count;
  Alcotest.(check bool) "as-negative counts fewer detections" true
    (neg.Psn_detection.Metrics.detections <= pos.Psn_detection.Metrics.detections)

let test_config_pp_smoke () =
  let s = Fmt.str "%a" Config.pp Config.default in
  Alcotest.(check bool) "mentions clock" true (String.length s > 10)

let () =
  Alcotest.run "psn_core"
    [
      ("config", [ Alcotest.test_case "effective hold" `Quick test_config_hold ]);
      ( "dispatch",
        [
          Alcotest.test_case "supported matrix" `Quick test_dispatch_supported;
          Alcotest.test_case "unsupported raise" `Quick test_dispatch_unsupported;
        ] );
      ( "runner",
        [
          Alcotest.test_case "end to end" `Quick test_runner_end_to_end;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_runner_seed_changes_world;
          Alcotest.test_case "report" `Quick test_report_words_per_update;
          Alcotest.test_case "topology" `Quick test_runner_topology;
          Alcotest.test_case "matrix fingerprint" `Quick
            test_matrix_fingerprint;
          Alcotest.test_case "policy passthrough" `Quick
            test_runner_policy_passthrough;
          Alcotest.test_case "config pp" `Quick test_config_pp_smoke;
        ] );
    ]
