(* Tests of the end-to-end benchmark's own code: order statistics, span
   self-time arithmetic, and the traced compositions' fidelity to the
   public calls they restate. *)

open Psn_e2e
module Sharded = Psn_scenarios.Sharded
module Exec = Psn_sim.Exec
module Sim_time = Psn_sim.Sim_time

let close = Alcotest.float 1e-9

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs =
    let a, b, c = Summary.quartiles xs in
    [ a; b; c ]
  in
  Alcotest.(check (list close)) "1..10" [ 2.75; 5.5; 8.25 ]
    (q (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (list close)) "three" [ 1.0; 2.0; 3.0 ] (q [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (list close)) "two extrapolates" [ 0.75; 1.5; 2.25 ] (q [| 2.0; 1.0 |]);
  Alcotest.(check (list close)) "unsorted five" [ 1.5; 3.0; 4.5 ]
    (q [| 5.0; 1.0; 4.0; 2.0; 3.0 |])

let test_summary () =
  let s = Summary.of_samples [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.(check int) "n" 5 s.n;
  Alcotest.check close "median" 3.0 s.median;
  Alcotest.check close "min" 1.0 s.min;
  Alcotest.check close "max" 5.0 s.max;
  Alcotest.check close "iqr" 3.0 (Summary.iqr s);
  Alcotest.check close "spread" 1.0 (Summary.spread s);
  let one = Summary.of_samples [| 7.0 |] in
  Alcotest.check close "single sample has no spread" 0.0 (Summary.iqr one);
  let xs = Array.init 101 float_of_int in
  Alcotest.check close "p50" 50.0 (Summary.percentile xs 50.0);
  Alcotest.check close "p99" 99.0 (Summary.percentile xs 99.0);
  Alcotest.check close "p99 interpolates" 3.96 (Summary.percentile [| 0.; 1.; 2.; 3.; 4. |] 99.0)

let span ~id ~name ~start ~stop ~parent =
  { Span.id; name; start_ns = start; stop_ns = stop; parent; tid = 0 }

(* root [0,100] holds a [10,40] and b [50,90]; b holds g [60,70]; an
   emit recorded on another domain names root as parent, [20,30]. *)
let test_self_times () =
  let spans =
    [|
      span ~id:0 ~name:"root" ~start:0 ~stop:100 ~parent:(-1);
      span ~id:1 ~name:"a" ~start:10 ~stop:40 ~parent:0;
      span ~id:2 ~name:"b" ~start:50 ~stop:90 ~parent:0;
      span ~id:3 ~name:"g" ~start:60 ~stop:70 ~parent:2;
      span ~id:(1 lsl 32) ~name:"a" ~start:20 ~stop:30 ~parent:0;
      span ~id:4 ~name:"after" ~start:120 ~stop:130 ~parent:(-1);
    |]
  in
  Alcotest.(check (array int)) "self" [| 20; 30; 30; 10; 10; 10 |] (Span.self_times spans);
  let rows = Span.rows spans ~root:spans.(0) in
  Alcotest.(check (list (triple string int int)))
    "rows inside root, by name"
    [ ("a", 2, 40); ("b", 1, 30); ("g", 1, 10) ]
    (List.map (fun (r : Span.row) -> (r.row_name, r.count, r.self_ns)) rows);
  let sum = List.fold_left (fun a (r : Span.row) -> a + r.self_ns) 0 rows in
  Alcotest.(check int) "rows + root self = total" 100 (sum + 20)

let test_recorder () =
  let t = Span.create () in
  let inner = ref (-1) in
  Span.with_span t "outer" (fun () ->
      Span.with_span t "inner" (fun () -> inner := Span.current t);
      let parent = Span.current t in
      Domain.join
        (Domain.spawn (fun () -> Span.leaf t ~parent "remote" ~start:1 ~stop:2)));
  let spans = Span.spans t in
  let get name = Option.get (Span.find spans name) in
  Alcotest.(check int) "outer is a root" (-1) (get "outer").parent;
  Alcotest.(check int) "inner's parent" (get "outer").id (get "inner").parent;
  Alcotest.(check int) "current was inner" (get "inner").id !inner;
  Alcotest.(check int) "remote's parent" (get "outer").id (get "remote").parent;
  Alcotest.(check bool) "remote in its own buffer" true
    ((get "remote").id lsr 32 <> (get "outer").id lsr 32)

(* One name recorded past the cap: the export keeps [chrome_per_name]
   of its spans, every span of the other names, and counts the rest. *)
let test_chrome_cap () =
  let t = Span.create () in
  Span.with_span t "run" (fun () ->
      let parent = Span.current t in
      for i = 1 to Span.chrome_per_name + 3 do
        Span.leaf t ~parent "emit" ~start:i ~stop:(i + 1)
      done);
  let module J = Psn_obs.Json in
  match J.of_string (Span.to_chrome (Span.spans t)) with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok doc ->
      let events =
        match J.member "traceEvents" doc with Some (J.List l) -> l | _ -> []
      in
      Alcotest.(check int) "events kept" (Span.chrome_per_name + 1) (List.length events);
      Alcotest.(check (option int)) "omitted count" (Some 3)
        (match Option.bind (J.member "otherData" doc) (J.member "omitted:emit") with
        | Some (J.Int n) -> Some n
        | _ -> None)

let small_hall =
  {
    Sharded.hall_default with
    detect = { Sharded.default_detect with horizon = Sim_time.of_sec 60 };
  }

let make shards =
  if shards = 1 then Exec.single ~seed:42L ()
  else
    Exec.sharded ~seed:42L ~shards
      ~lookahead:(Psn_sim.Delay_model.min_delay small_hall.detect.delay) ()

let test_traced_hall shards () =
  let plain = Sharded.hall ~cfg:small_hall (make shards) in
  let traced, _ = Traced.hall (Span.create ()) small_hall (make shards) in
  Alcotest.(check string) "Report.core digest"
    (Workloads.report_digest plain) (Workloads.report_digest traced);
  Alcotest.(check bool) "the hall scores intervals" true (plain.summary.truth_count > 0)

let test_traced_stream () =
  let cfg = Workloads.stream_cfg 120 in
  let plain, _ = Sharded.stream ~cfg (make 1) in
  let cap = Traced.capture cfg.s_monitors in
  let sp = Span.create () in
  let traced, det = Traced.stream sp ~on_observe:(Traced.record cap) cfg (make 1) in
  Alcotest.(check bool) "same stream result" true (plain = traced);
  let holds = Traced.stream_holds cfg det in
  let writes =
    Array.init cfg.s_monitors (fun i ->
        Psn_detection.Streaming_detector.updates det
        |> List.filter (fun (u : Psn_detection.Observation.update) -> u.src = i)
        |> List.sort (fun (a : Psn_detection.Observation.update) b -> compare a.seq b.seq)
        |> List.map (fun (u : Psn_detection.Observation.update) -> (u.var, u.value))
        |> Array.of_list)
  in
  let oracle =
    Psn_lattice.Modal.holds_of_expr ~init:[] ~updates:writes (Sharded.stream_predicate cfg)
  in
  let stamps = Traced.stamps cap in
  Array.iter
    (Array.iter (fun cut ->
         Alcotest.(check bool) "holds agrees with Modal.holds_of_expr" (oracle cut) (holds cut)))
    stamps;
  Alcotest.(check bool) "empty cut" (oracle (Array.make cfg.s_monitors 0))
    (holds (Array.make cfg.s_monitors 0));
  let s = Traced.replay sp ~cap:cfg.s_cap ~holds cap in
  Alcotest.(check bool) "replay verdicts" true
    (Psn_lattice.Streaming.possibly s = traced.sr_possibly
    && Psn_lattice.Streaming.definitely s = traced.sr_definitely
    && Psn_lattice.Streaming.committed_cuts s = traced.sr_committed)

let () =
  Alcotest.run "e2e"
    [
      ( "summary",
        [
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "median, iqr, percentiles" `Quick test_summary;
        ] );
      ( "span",
        [
          Alcotest.test_case "self-time arithmetic" `Quick test_self_times;
          Alcotest.test_case "recorder parents across domains" `Quick test_recorder;
          Alcotest.test_case "chrome export caps each name" `Quick test_chrome_cap;
        ] );
      ( "traced",
        [
          Alcotest.test_case "hall equals Sharded.hall (K=1)" `Quick (test_traced_hall 1);
          Alcotest.test_case "hall equals Sharded.hall (K=2)" `Quick (test_traced_hall 2);
          Alcotest.test_case "stream equals Sharded.stream, replay agrees" `Quick
            test_traced_stream;
        ] );
    ]
