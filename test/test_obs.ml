(* Tests for the observability layer: trace sink, metrics registry, and
   exporters.  The load-bearing property is determinism — with a fixed
   seed the JSONL trace must be byte-identical across runs, which is what
   makes a trace a reviewable artifact rather than a log. *)

module Sim_time = Psn_sim.Sim_time
module Engine = Psn_sim.Engine
module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics
module Export = Psn_obs.Export
module Json = Psn_obs.Json
module Profile = Psn_obs.Profile
module Office = Psn_scenarios.Smart_office

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let traced_office_run ?(seed = 11L) ?timeline () =
  let sink = Trace.create () in
  let body () =
    Trace.with_default sink (fun () ->
        let cfg = Office.default in
        let config =
          {
            Psn.Config.default with
            n = Office.n_processes cfg;
            clock = Psn_clocks.Clock_kind.Strobe_vector;
            delay =
              Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 10)
                ~max:(Sim_time.of_ms 100);
            horizon = Sim_time.of_sec 600;
            seed;
          }
        in
        ignore (Office.run ~cfg config))
  in
  (match timeline with
  | None -> body ()
  | Some tl -> Metrics.with_default_timeline tl body);
  sink

let test_trace_deterministic () =
  let a = Export.jsonl_string (traced_office_run ()) in
  let b = Export.jsonl_string (traced_office_run ()) in
  Alcotest.(check bool) "non-empty" true (String.length a > 0);
  Alcotest.(check string) "byte-identical across equal seeds" a b

let test_trace_covers_layers () =
  let sink = traced_office_run () in
  let names = Hashtbl.create 16 in
  Trace.iter (fun r -> Hashtbl.replace names (Trace.event_name r.event) ()) sink;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true (Hashtbl.mem names name))
    [ "engine.schedule"; "engine.fire"; "net.send"; "net.deliver";
      "clock.strobe"; "detector.update" ]

let test_disabled_sink_no_events () =
  (* No default sink installed: the engine holds [None] and the untouched
     sink must stay empty after a full run. *)
  let sink = Trace.create () in
  let engine = Engine.create ~seed:7L () in
  Alcotest.(check bool) "engine untraced" true (Engine.tracer engine = None);
  for i = 1 to 50 do
    ignore (Engine.schedule_at engine (Sim_time.of_us i) (fun () -> ()))
  done;
  Engine.run engine;
  Alcotest.(check int) "no events recorded" 0 (Trace.length sink)

let test_engine_trace_events () =
  let sink = Trace.create () in
  let engine = Engine.create ~seed:7L ~tracer:sink () in
  let h = Engine.schedule_at engine (Sim_time.of_us 5) (fun () -> ()) in
  ignore (Engine.schedule_at engine (Sim_time.of_us 1) (fun () -> ()));
  Engine.cancel h;
  Engine.run engine;
  let count name =
    let k = ref 0 in
    Trace.iter (fun r -> if Trace.event_name r.event = name then incr k) sink;
    !k
  in
  Alcotest.(check int) "schedules" 2 (count "engine.schedule");
  Alcotest.(check int) "cancels" 1 (count "engine.cancel");
  Alcotest.(check int) "fires" 1 (count "engine.fire")

let test_metrics_snapshot_roundtrip () =
  let m = Metrics.create () in
  let c = Metrics.counter m "net.sent" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  let g = Metrics.gauge m "queue.depth" in
  Metrics.set g 3.5;
  let h = Metrics.histogram m ~lo:0.0 ~hi:100.0 ~bins:10 "delay_ms" in
  List.iter (Metrics.observe h) [ -1.0; 5.0; 55.0; 250.0 ];
  let s = Metrics.snapshot m in
  Alcotest.(check int) "counter" 42 (Metrics.get_counter s "net.sent");
  (match Metrics.snapshot_of_json (Metrics.snapshot_to_json s) with
  | Ok s' -> Alcotest.(check bool) "round-trip" true (s = s')
  | Error e -> Alcotest.fail ("parse error: " ^ e));
  Metrics.reset m;
  Alcotest.(check int) "reset zeroes" 0
    (Metrics.get_counter (Metrics.snapshot m) "net.sent")

let test_report_carries_metrics () =
  let sink = traced_office_run () in
  ignore sink;
  let cfg = Office.default in
  let config =
    { Psn.Config.default with n = Office.n_processes cfg; seed = 23L }
  in
  let report = Office.run ~cfg config in
  let m = Psn.Report.metrics report in
  Alcotest.(check bool) "metrics snapshot non-empty" true (m <> []);
  Alcotest.(check bool) "engine fired events" true
    (Metrics.get_counter m "engine.fired" > 0)

(* --- spans, flows, timeline, profile ----------------------------------- *)

(* Same-seed runs with spans (and a timeline) enabled must be
   byte-identical: the determinism contract extends to the new record
   kinds and to the metric time series. *)
let test_span_trace_deterministic =
  qtest ~count:5 "same-seed jsonl with spans+timeline is byte-identical"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let run () =
        let tl = Metrics.timeline_create ~period_ns:10_000_000_000 () in
        let sink =
          traced_office_run ~seed:(Int64.of_int seed) ~timeline:tl ()
        in
        (Export.jsonl_string sink, Export.timeline_jsonl_string tl)
      in
      let t1, tl1 = run () and t2, tl2 = run () in
      String.length t1 > 0 && t1 = t2 && String.length tl1 > 0 && tl1 = tl2)

let test_spans_balance () =
  let sink = traced_office_run () in
  (* Per (pid, lane): every end matches the innermost open begin. *)
  let stacks = Hashtbl.create 16 in
  let span_pids = Hashtbl.create 16 in
  Trace.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Trace.Span_begin { name; lane } ->
          Hashtbl.replace span_pids r.pid ();
          Hashtbl.replace stacks (r.pid, lane)
            (name :: (Option.value ~default:[] (Hashtbl.find_opt stacks (r.pid, lane))))
      | Trace.Span_end { name; lane } -> (
          match Hashtbl.find_opt stacks (r.pid, lane) with
          | Some (top :: rest) when top = name ->
              Hashtbl.replace stacks (r.pid, lane) rest
          | _ -> Alcotest.fail (Printf.sprintf "unbalanced span end %S" name))
      | _ -> ())
    sink;
  Hashtbl.iter
    (fun (pid, lane) stack ->
      Alcotest.(check (list string))
        (Printf.sprintf "pid %d lane %d drains" pid lane)
        [] stack)
    stacks;
  (* Engine exec spans plus at least one span on every sensing process. *)
  Alcotest.(check bool) "engine spans present" true
    (Hashtbl.mem span_pids Trace.engine_pid);
  Alcotest.(check bool) "process spans present" true (Hashtbl.mem span_pids 0)

let test_flows_pair_up () =
  let sink = traced_office_run () in
  let sends = Hashtbl.create 64 in
  let delivered = ref 0 in
  Trace.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Trace.Net_send { src; dst; flow; _ } ->
          Alcotest.(check bool) "flow ids unique per send" false
            (Hashtbl.mem sends flow);
          Hashtbl.replace sends flow (src, dst)
      | Trace.Net_deliver { src; dst; flow; _ }
      | Trace.Net_drop { src; dst; flow; _ } -> (
          incr delivered;
          match Hashtbl.find_opt sends flow with
          | Some (s, d) ->
              Alcotest.(check (pair int int))
                "flow endpoints match its send" (s, d) (src, dst)
          | None -> Alcotest.fail "deliver/drop with unknown flow id")
      | _ -> ())
    sink;
  Alcotest.(check bool) "some messages flowed" true (!delivered > 0)

let test_histogram_bounds_mismatch_raises () =
  let m = Metrics.create () in
  let _h = Metrics.histogram m ~lo:0.0 ~hi:100.0 ~bins:10 "lat" in
  (* Same bounds: get-or-create returns the registered instrument. *)
  let _same = Metrics.histogram m ~lo:0.0 ~hi:100.0 ~bins:10 "lat" in
  Alcotest.check_raises "mismatched bounds raise"
    (Invalid_argument
       "Metrics.histogram: \"lat\" already registered with [0,100) x10, \
        requested [0,500) x10")
    (fun () -> ignore (Metrics.histogram m ~lo:0.0 ~hi:500.0 ~bins:10 "lat"))

let test_timeline_ring () =
  let m = Metrics.create () in
  let c = Metrics.counter m "ticks" in
  let tl = Metrics.timeline_create ~capacity:4 ~period_ns:1000 () in
  for i = 1 to 10 do
    Metrics.tick c;
    Metrics.timeline_record tl ~time_ns:(i * 1000) m
  done;
  Alcotest.(check int) "recorded" 10 (Metrics.timeline_recorded tl);
  Alcotest.(check int) "dropped" 6 (Metrics.timeline_dropped tl);
  let samples = Metrics.timeline_samples tl in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length samples);
  Alcotest.(check (list int)) "oldest first, newest kept"
    [ 7000; 8000; 9000; 10000 ]
    (List.map (fun (s : Metrics.sample) -> s.Metrics.s_time_ns) samples);
  let last = List.nth samples 3 in
  Alcotest.(check (list (pair string (float 0.0))))
    "sample carries instrument values" [ ("ticks", 10.0) ] last.Metrics.s_values

let test_engine_samples_default_timeline () =
  let tl = Metrics.timeline_create ~period_ns:1_000_000 () in
  Metrics.with_default_timeline tl (fun () ->
      let engine = Engine.create ~seed:3L () in
      for i = 1 to 5 do
        Engine.schedule_at_unit engine (Sim_time.of_ms i) ignore
      done;
      Engine.run engine);
  (* Samples at 0..5ms; the sampler stops once the queue is empty, so the
     horizonless run terminated to let us get here at all. *)
  Alcotest.(check bool) "sampled" true (Metrics.timeline_recorded tl >= 5);
  let has_depth =
    List.exists
      (fun (s : Metrics.sample) ->
        List.mem_assoc "engine.queue_depth" s.Metrics.s_values)
      (Metrics.timeline_samples tl)
  in
  Alcotest.(check bool) "queue depth gauge sampled" true has_depth

let test_profile_phases () =
  let p = Profile.create () in
  let r = Profile.with_phase p "work" (fun () ->
      ignore (Sys.opaque_identity (List.init 10_000 string_of_int));
      17)
  in
  Alcotest.(check int) "result passes through" 17 r;
  ignore (Profile.with_phase p "work" (fun () -> ()));
  (match Profile.phases p with
  | [ ph ] ->
      Alcotest.(check string) "name" "work" ph.Profile.name;
      Alcotest.(check int) "aggregated count" 2 ph.Profile.count;
      Alcotest.(check bool) "wall advanced" true (ph.Profile.wall_ns > 0);
      Alcotest.(check bool) "allocation observed" true
        (ph.Profile.minor_words > 0.0)
  | phs -> Alcotest.fail (Printf.sprintf "expected 1 phase, got %d" (List.length phs)));
  (match Json.of_string (Profile.to_json p) with
  | Error e -> Alcotest.fail ("profile json unparsable: " ^ e)
  | Ok doc ->
      Alcotest.(check bool) "schema tagged" true
        (Json.member "schema" doc = Some (Json.Str "psn-profile/1")));
  (* [phase] is the identity without an installed default profile. *)
  Alcotest.(check int) "phase no-ops" 3 (Profile.phase "x" (fun () -> 3));
  Alcotest.(check int) "no stray phase recorded" 1
    (List.length (Profile.phases p))

(* --- per-domain defaults ------------------------------------------------- *)

(* A default sink, timeline or profile belongs to the domain that
   installed it: an engine created on a spawned domain picks none of
   them up, and a phase entered there is not charged. *)
let test_defaults_are_per_domain () =
  let sink = Trace.create () in
  let tl = Metrics.timeline_create ~period_ns:1_000_000 () in
  let p = Profile.create () in
  let observes () =
    let e = Engine.create () in
    Profile.phase "probe" ignore;
    (Option.is_some (Engine.tracer e), Option.is_some (Engine.timeline e))
  in
  let home, away =
    Trace.with_default sink (fun () ->
        Metrics.with_default_timeline tl (fun () ->
            Profile.with_default p (fun () ->
                let home = observes () in
                (home, Domain.join (Domain.spawn observes)))))
  in
  Alcotest.(check (pair bool bool)) "installing domain sees both" (true, true)
    home;
  Alcotest.(check (pair bool bool)) "spawned domain sees neither"
    (false, false) away;
  match Profile.phases p with
  | [ ph ] -> Alcotest.(check int) "only the home phase charged" 1 ph.Profile.count
  | phs -> Alcotest.fail (Printf.sprintf "expected 1 phase, got %d" (List.length phs))

(* While a default sink or timeline is installed, maps issued from the
   installing domain run every task there.  Each task sleeps, so pool
   workers would wake and take chunks if the map were handed to them. *)
let test_maps_stay_home_under_defaults () =
  let me = Domain.self () in
  let away () =
    Psn_util.Parallel.map_array ~domains:4
      (fun () ->
        Unix.sleepf 0.001;
        Domain.self () <> me)
      (Array.make 32 ())
    |> Array.fold_left (fun n b -> if b then n + 1 else n) 0
  in
  Alcotest.(check int) "trace default: no task left the caller" 0
    (Trace.with_default (Trace.create ()) away);
  Alcotest.(check int) "timeline default: no task left the caller" 0
    (Metrics.with_default_timeline
       (Metrics.timeline_create ~period_ns:1_000_000 ())
       away)

(* --- json printer/parser ------------------------------------------------ *)

let test_json_float_roundtrip =
  qtest ~count:500 "finite floats survive print/parse exactly"
    QCheck.float (fun f ->
      QCheck.assume (Float.is_finite f);
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) -> Int64.bits_of_float f = Int64.bits_of_float g
      | _ -> false)

let test_json_nonfinite_null () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "%h prints as null" f)
        "null"
        (Json.to_string (Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* And stays valid JSON in context. *)
  match Json.of_string (Json.to_string (Json.Obj [ ("v", Json.Float Float.nan) ])) with
  | Ok (Json.Obj [ ("v", Json.Null) ]) -> ()
  | _ -> Alcotest.fail "non-finite float should parse back as null"

(* --- chrome golden ------------------------------------------------------ *)

(* A tiny synthetic run covering every exporter feature: a span, a
   send->deliver flow pair, a send->drop flow pair (drops must finish
   their flow arrow too), an occurrence window, and a counter track.
   The exact bytes are the contract — Perfetto-compatible output should
   never drift silently. *)
let synthetic_sink_and_timeline () =
  let sink = Trace.create () in
  let m = Metrics.create () in
  let tl = Metrics.timeline_create ~capacity:8 ~period_ns:1_000 () in
  let g = Metrics.gauge m "engine.queue_depth" in
  Trace.emit sink ~time:0 ~pid:Trace.engine_pid
    (Trace.Span_begin { name = "engine.exec"; lane = Trace.lane_sync });
  let flow = Trace.fresh_flow sink in
  Trace.emit sink ~time:0 ~pid:0
    (Trace.Net_send { src = 0; dst = 1; words = 2; kind = "detector"; flow });
  Trace.emit sink ~time:0 ~pid:Trace.engine_pid
    (Trace.Span_end { name = "engine.exec"; lane = Trace.lane_sync });
  Metrics.set g 1.0;
  Metrics.timeline_record tl ~time_ns:0 m;
  Trace.emit sink ~time:1_500 ~pid:1
    (Trace.Net_deliver { src = 0; dst = 1; kind = "detector"; flow });
  Trace.emit sink ~time:2_000 ~pid:0
    (Trace.Detector_occurrence { verdict = "positive"; window_ns = 1_000 });
  let dropped = Trace.fresh_flow sink in
  Trace.emit sink ~time:2_500 ~pid:1
    (Trace.Net_send { src = 1; dst = 0; words = 2; kind = "detector"; flow = dropped });
  Trace.emit sink ~time:2_500 ~pid:0
    (Trace.Net_drop { src = 1; dst = 0; kind = "detector"; flow = dropped });
  Metrics.set g 0.0;
  Metrics.timeline_record tl ~time_ns:1_000 m;
  (sink, tl)

let chrome_golden =
  {golden|{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"args":{"name":"engine"}},
{"name":"process_name","ph":"M","pid":1,"args":{"name":"proc 0"}},
{"name":"process_name","ph":"M","pid":2,"args":{"name":"proc 1"}},
{"name":"engine.exec","ph":"B","ts":0.000,"pid":0,"tid":0,"args":{"seq":0}},
{"name":"net.send","ph":"X","ts":0.000,"dur":0.001,"pid":1,"tid":0,"args":{"seq":1,"src":0,"dst":1,"words":2,"kind":"detector","flow":0}},
{"name":"msg","cat":"net","ph":"s","id":0,"ts":0.000,"pid":1,"tid":0},
{"name":"engine.exec","ph":"E","ts":0.000,"pid":0,"tid":0,"args":{"seq":2}},
{"name":"net.deliver","ph":"X","ts":1.500,"dur":0.001,"pid":2,"tid":0,"args":{"seq":3,"src":0,"dst":1,"kind":"detector","flow":0}},
{"name":"msg","cat":"net","ph":"f","bp":"e","id":0,"ts":1.500,"pid":2,"tid":0},
{"name":"detector.occurrence","ph":"X","ts":1.000,"dur":1.000,"pid":1,"tid":1,"args":{"seq":4,"verdict":"positive","window_ns":1000}},
{"name":"net.send","ph":"X","ts":2.500,"dur":0.001,"pid":2,"tid":0,"args":{"seq":5,"src":1,"dst":0,"words":2,"kind":"detector","flow":1}},
{"name":"msg","cat":"net","ph":"s","id":1,"ts":2.500,"pid":2,"tid":0},
{"name":"net.drop","ph":"X","ts":2.500,"dur":0.001,"pid":1,"tid":0,"args":{"seq":6,"src":1,"dst":0,"kind":"detector","flow":1}},
{"name":"msg","cat":"net","ph":"f","bp":"e","id":1,"ts":2.500,"pid":1,"tid":0},
{"name":"engine.queue_depth","ph":"C","ts":0.000,"pid":0,"args":{"value":1.0}},
{"name":"engine.queue_depth","ph":"C","ts":1.000,"pid":0,"args":{"value":0.0}}
],"displayTimeUnit":"ms"}
|golden}

let test_chrome_golden () =
  let sink, tl = synthetic_sink_and_timeline () in
  Alcotest.(check string) "chrome export bytes" chrome_golden
    (Export.chrome_string ~timeline:tl [ sink ])

let test_timeline_jsonl_golden () =
  let _, tl = synthetic_sink_and_timeline () in
  Alcotest.(check string) "timeline jsonl bytes"
    "{\"t_ns\":0,\"values\":{\"engine.queue_depth\":1.0}}\n\
     {\"t_ns\":1000,\"values\":{\"engine.queue_depth\":0.0}}\n"
    (Export.timeline_jsonl_string tl)

let test_chrome_export_parses () =
  let sink = traced_office_run () in
  match Json.of_string (Export.chrome_string [ sink ]) with
  | Error e -> Alcotest.fail ("chrome export unparsable: " ^ e)
  | Ok doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.List events) ->
          Alcotest.(check bool) "has events" true (List.length events > 0)
      | _ -> Alcotest.fail "missing traceEvents array")

(* Regenerate the golden above with:
   DUMP_CHROME_GOLDEN=1 dune exec test/test_obs.exe *)
let () =
  match Sys.getenv_opt "DUMP_CHROME_GOLDEN" with
  | Some _ ->
      let sink, tl = synthetic_sink_and_timeline () in
      print_string (Export.chrome_string ~timeline:tl [ sink ]);
      exit 0
  | None -> ()

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "deterministic jsonl" `Quick
            test_trace_deterministic;
          Alcotest.test_case "covers layers" `Quick test_trace_covers_layers;
          Alcotest.test_case "disabled sink is silent" `Quick
            test_disabled_sink_no_events;
          Alcotest.test_case "engine events" `Quick test_engine_trace_events;
          Alcotest.test_case "spans balance per lane" `Quick test_spans_balance;
          Alcotest.test_case "flow ids pair sends with deliveries" `Quick
            test_flows_pair_up;
          test_span_trace_deterministic;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot json round-trip" `Quick
            test_metrics_snapshot_roundtrip;
          Alcotest.test_case "report carries metrics" `Quick
            test_report_carries_metrics;
          Alcotest.test_case "histogram bounds mismatch raises" `Quick
            test_histogram_bounds_mismatch_raises;
          Alcotest.test_case "timeline ring overwrites oldest" `Quick
            test_timeline_ring;
          Alcotest.test_case "engine samples default timeline" `Quick
            test_engine_samples_default_timeline;
        ] );
      ( "profile",
        [ Alcotest.test_case "phases aggregate" `Quick test_profile_phases ] );
      ( "domains",
        [
          Alcotest.test_case "engines on other domains see no default" `Quick
            test_defaults_are_per_domain;
          Alcotest.test_case "maps stay on the installing domain" `Quick
            test_maps_stay_home_under_defaults;
        ] );
      ( "json",
        [
          test_json_float_roundtrip;
          Alcotest.test_case "non-finite floats print as null" `Quick
            test_json_nonfinite_null;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace parses" `Quick
            test_chrome_export_parses;
          Alcotest.test_case "chrome golden bytes" `Quick test_chrome_golden;
          Alcotest.test_case "timeline jsonl golden bytes" `Quick
            test_timeline_jsonl_golden;
        ] );
    ]
