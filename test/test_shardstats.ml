(* Shard-aware observability: conservation invariants of the
   [Shard_stats] arena against real sharded runs, byte-goldens of the
   analyzer renderings on a hand-built deterministic stats object, the
   JSON round trip behind [psn-sim shardstats FILE], the merged-chrome
   tid mapping, the report's shard breakdown, and the engine's profile
   phases.

   The hand-built stats work because every [Shard_stats] recording
   entry point takes explicit host-ns values: the goldens below replay
   a fixed three-window run and must render byte-identically on any
   machine. *)

module Exec = Psn_sim.Exec
module Sim_time = Psn_sim.Sim_time
module Delay_model = Psn_sim.Delay_model
module Trace = Psn_obs.Trace
module Export = Psn_obs.Export
module Json = Psn_obs.Json
module Shard_stats = Psn_obs.Shard_stats
module Analyze = Psn_obs.Analyze
module Profile = Psn_obs.Profile
module Sharded = Psn_scenarios.Sharded

let qtest ?(count = 10) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let ms = Sim_time.of_ms

let delay_small = Delay_model.bounded_uniform ~min:(ms 5) ~max:(ms 60)

let small_detect =
  {
    Sharded.default_detect with
    groups = 4;
    flush_period = ms 100;
    horizon = Sim_time.of_sec 120;
    delay = delay_small;
  }

let hall_cfg =
  { Sharded.hall_default with
    doors = 16; visitors = 24; capacity = 6; detect = small_detect }

(* Run the hall scenario sharded and hand back the run's exec (whose
   stats the tests inspect) along with the report. *)
let run_hall ~seed ~shards =
  let exec =
    Exec.sharded ~seed ~shards ~lookahead:(Delay_model.min_delay delay_small)
      ()
  in
  let report = Sharded.hall ~cfg:hall_cfg exec in
  (exec, report)

(* {2 Conservation} *)

(* Sum of the per-window per-shard event deltas must be exactly the
   engine total; every cross-shard message posted must have been
   drained (into a window row or the epilogue); the traffic matrix
   must agree with the row's message count. *)
let test_conservation =
  qtest ~count:8 "per-window counters conserve engine totals"
    QCheck.(pair (int_range 0 10_000) (int_range 1 4))
    (fun (seed, shards) ->
      let exec, _report = run_hall ~seed:(Int64.of_int seed) ~shards in
      let st =
        match Exec.stats exec with
        | Some st -> st
        | None -> QCheck.Test.fail_report "sharded exec has no stats"
      in
      let w = Shard_stats.windows st in
      let sum_events = ref 0 and sum_msgs = ref 0 and sum_traffic = ref 0 in
      for i = 0 to w - 1 do
        sum_msgs := !sum_msgs + Shard_stats.mail_msgs st i;
        for s = 0 to shards - 1 do
          sum_events := !sum_events + Shard_stats.events st i ~shard:s;
          for d = 0 to shards - 1 do
            sum_traffic := !sum_traffic + Shard_stats.traffic st i ~src:s ~dst:d
          done
        done
      done;
      let check name got want =
        if got <> want then
          QCheck.Test.fail_reportf "%s: %d <> %d (seed=%d K=%d)" name got want
            seed shards
      in
      check "windows" w (Exec.windows exec);
      check "events" !sum_events (Exec.events_processed exec);
      check "events total" (Shard_stats.total_events st) !sum_events;
      check "traffic vs msgs" !sum_traffic !sum_msgs;
      check "drained"
        (!sum_msgs + Shard_stats.epilogue_mail_msgs st)
        (Shard_stats.drained_total st);
      check "pending" (Shard_stats.pending st) 0;
      check "posted" (Shard_stats.posted_total st)
        (Shard_stats.drained_total st);
      (* the analyzer agrees with the raw counters *)
      let sr = Analyze.sharded st in
      check "analysis events" sr.Analyze.sr_events !sum_events;
      check "analysis windows" sr.Analyze.sr_windows w;
      check "limits partition windows"
        (sr.Analyze.sr_limit_lookahead + sr.Analyze.sr_limit_queue
        + sr.Analyze.sr_limit_horizon)
        w;
      let c0, s0 = sr.Analyze.sr_amdahl.(0) in
      if c0 <> 1 || abs_float (s0 -. 1.0) > 1e-9 then
        QCheck.Test.fail_reportf "amdahl curve must start at (1, 1.0)";
      true)

(* {2 Hand-built stats: deterministic goldens} *)

(* A fixed three-window, two-shard run: window 0 settles as
   lookahead-limited, window 1 as queue-limited, window 2 is clipped
   by the horizon; the final round drains one message and aborts. *)
let hand_stats () =
  let st = Shard_stats.create ~shards:2 ~lookahead_ns:1_000_000 in
  (* round 1: window [0, 1 ms) *)
  Shard_stats.round_begin st;
  Shard_stats.drain_done st ~host_ns:1_000;
  Shard_stats.fold_done st ~host_ns:500;
  Shard_stats.classify_prev st ~next_ns:0 (* no row yet: no-op *);
  Shard_stats.window_open st ~start_ns:0 ~end_ns:1_000_000;
  Shard_stats.note_posted st ~src:0;
  Shard_stats.note_posted st ~src:0;
  Shard_stats.shard_report st ~shard:0 ~events_total:5 ~busy_ns:4_000;
  Shard_stats.shard_report st ~shard:1 ~events_total:3 ~busy_ns:2_000;
  Shard_stats.window_close st ~clipped:false ~par_ns:5_000;
  (* round 2: drains shard 0's messages; next = 1.5 ms is within one
     lookahead of window 0's end, so window 0 was lookahead-limited *)
  Shard_stats.round_begin st;
  Shard_stats.note_traffic st ~src:0 ~dst:1 ~msgs:2;
  Shard_stats.note_occupancy st ~ints:18;
  Shard_stats.drain_done st ~host_ns:800;
  Shard_stats.fold_done st ~host_ns:400;
  Shard_stats.classify_prev st ~next_ns:1_500_000;
  Shard_stats.window_open st ~start_ns:1_500_000 ~end_ns:2_500_000;
  Shard_stats.note_posted st ~src:1;
  Shard_stats.shard_report st ~shard:0 ~events_total:9 ~busy_ns:3_000;
  Shard_stats.shard_report st ~shard:1 ~events_total:3 ~busy_ns:100;
  Shard_stats.window_close st ~clipped:false ~par_ns:3_200;
  (* round 3: next = 5 ms, a full lookahead past window 1's end, so
     window 1 stays queue-limited; this window hits the horizon *)
  Shard_stats.round_begin st;
  Shard_stats.drain_done st ~host_ns:300;
  Shard_stats.fold_done st ~host_ns:150;
  Shard_stats.classify_prev st ~next_ns:5_000_000;
  Shard_stats.window_open st ~start_ns:5_000_000 ~end_ns:5_200_000;
  Shard_stats.shard_report st ~shard:0 ~events_total:12 ~busy_ns:1_000;
  Shard_stats.shard_report st ~shard:1 ~events_total:7 ~busy_ns:2_500;
  Shard_stats.window_close st ~clipped:true ~par_ns:2_600;
  (* final round: drains shard 1's message, opens no window *)
  Shard_stats.round_begin st;
  Shard_stats.note_traffic st ~src:1 ~dst:0 ~msgs:1;
  Shard_stats.note_occupancy st ~ints:9;
  Shard_stats.drain_done st ~host_ns:200;
  Shard_stats.fold_done st ~host_ns:100;
  Shard_stats.classify_prev st ~next_ns:max_int;
  Shard_stats.round_abort st;
  Shard_stats.run_done st ~wall_ns:25_000;
  st

let render_golden =
  {golden|== sharded run: 2 shards, 3 windows, lookahead 1.000 ms ==
events 19 | cross-shard msgs 3 (pending 0, peak ring 18 ints)
windows: 1 lookahead-limited, 1 queue-limited, 1 horizon-limited
wall 0.025 ms = parallel 43.2% + drain 9.2% + fold 4.6% + other 43.0%
busy 0.013 ms over 2 shards; critical path 0.009 ms; dispatch 0.000 ms
load imbalance: 1.368 (events), 1.508 (busy)
 shard     events    busy ms    wait ms     sent     recv
     0         12      0.008      0.003        2        0
     1          7      0.005      0.006        0        2
Amdahl projection: x1.00 @1 x1.13 @2 x1.13 @4 x1.13 @8 x1.13 @16 x1.13 @32 | limit x1.13
|golden}

let json_golden =
  {golden|{"schema":"psn-shardstats/1","shards":2,"lookahead_ns":1000000,"totals":{"windows":3,"events":19,"posted":3,"drained":3,"pending":0,"peak_mailbox_ints":18,"run_wall_ns":25000,"epilogue_drain_ns":200,"epilogue_fold_ns":100,"epilogue_mail_msgs":1},"windows":[{"start_ns":0,"end_ns":1000000,"limit":"lookahead","drain_ns":1000,"fold_ns":500,"par_ns":5000,"mail_msgs":0,"mail_ints":0,"events":[5,3],"busy_ns":[4000,2000]},{"start_ns":1500000,"end_ns":2500000,"limit":"queue","drain_ns":800,"fold_ns":400,"par_ns":3200,"mail_msgs":2,"mail_ints":18,"events":[4,0],"busy_ns":[3000,100],"traffic":[0,2,0,0]},{"start_ns":5000000,"end_ns":5200000,"limit":"horizon","drain_ns":300,"fold_ns":150,"par_ns":2600,"mail_msgs":0,"mail_ints":0,"events":[3,4],"busy_ns":[1000,2500]}],"analysis":{"wall_ns":25000,"attribution":{"parallel_ns":10800,"drain_ns":2300,"fold_ns":1150,"other_ns":10750,"busy_ns":12600,"critical_ns":9500,"dispatch_ns":100,"parallel_frac":0.432,"serial_frac":0.56799999999999995},"limits":{"lookahead":1,"queue":1,"horizon":1},"imbalance":{"events":1.368421052631579,"busy":1.5079365079365079},"per_shard":[{"shard":0,"events":12,"busy_ns":8000,"wait_ns":2800,"sent":2,"recv":0},{"shard":1,"events":7,"busy_ns":4600,"wait_ns":6200,"sent":0,"recv":2}],"amdahl":{"cores":[1,2,4,8,16,32],"speedup":[1.0,1.1302521008403361,1.1302521008403361,1.1302521008403361,1.1302521008403361,1.1302521008403361],"limit":1.1302521008403361}}}|golden}

let chrome_golden =
  {golden|{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"args":{"name":"coordinator"}},
{"name":"process_name","ph":"M","pid":1,"args":{"name":"shard 0"}},
{"name":"process_name","ph":"M","pid":2,"args":{"name":"shard 1"}},
{"name":"barrier.drain","ph":"X","ts":0.000,"dur":1.000,"pid":0,"tid":0,"args":{"window":0,"msgs":0,"ints":0}},
{"name":"barrier.fold","ph":"X","ts":1.000,"dur":0.500,"pid":0,"tid":0,"args":{"window":0}},
{"name":"window","ph":"X","ts":1.500,"dur":4.000,"pid":1,"tid":0,"args":{"window":0,"events":5,"limit":"lookahead","start_ns":0,"end_ns":1000000}},
{"name":"window","ph":"X","ts":1.500,"dur":2.000,"pid":2,"tid":0,"args":{"window":0,"events":3,"limit":"lookahead","start_ns":0,"end_ns":1000000}},
{"name":"barrier.drain","ph":"X","ts":6.500,"dur":0.800,"pid":0,"tid":0,"args":{"window":1,"msgs":2,"ints":18}},
{"name":"barrier.fold","ph":"X","ts":7.300,"dur":0.400,"pid":0,"tid":0,"args":{"window":1}},
{"name":"window","ph":"X","ts":7.700,"dur":3.000,"pid":1,"tid":0,"args":{"window":1,"events":4,"limit":"queue","start_ns":1500000,"end_ns":2500000}},
{"name":"window","ph":"X","ts":7.700,"dur":0.100,"pid":2,"tid":0,"args":{"window":1,"events":0,"limit":"queue","start_ns":1500000,"end_ns":2500000}},
{"name":"mail.out","ph":"X","ts":5.500,"dur":0.001,"pid":1,"tid":0,"args":{"seq":1,"msgs":2}},
{"name":"msg","cat":"net","ph":"s","id":5,"ts":5.500,"pid":1,"tid":0},
{"name":"mail.in","ph":"X","ts":7.700,"dur":0.001,"pid":2,"tid":0,"args":{"seq":1,"msgs":2}},
{"name":"msg","cat":"net","ph":"f","bp":"e","id":5,"ts":7.700,"pid":2,"tid":0},
{"name":"barrier.drain","ph":"X","ts":10.900,"dur":0.300,"pid":0,"tid":0,"args":{"window":2,"msgs":0,"ints":0}},
{"name":"barrier.fold","ph":"X","ts":11.200,"dur":0.150,"pid":0,"tid":0,"args":{"window":2}},
{"name":"window","ph":"X","ts":11.350,"dur":1.000,"pid":1,"tid":0,"args":{"window":2,"events":3,"limit":"horizon","start_ns":5000000,"end_ns":5200000}},
{"name":"window","ph":"X","ts":11.350,"dur":2.500,"pid":2,"tid":0,"args":{"window":2,"events":4,"limit":"horizon","start_ns":5000000,"end_ns":5200000}},
{"name":"barrier.drain","ph":"X","ts":13.950,"dur":0.200,"pid":0,"tid":0,"args":{"window":3,"msgs":1}},
{"name":"barrier.fold","ph":"X","ts":14.150,"dur":0.100,"pid":0,"tid":0,"args":{"window":3}}
],"displayTimeUnit":"ms"}
|golden}

let test_render_golden () =
  Alcotest.(check string) "render_sharded bytes" render_golden
    (Analyze.render_sharded (hand_stats ()))

let test_json_golden () =
  Alcotest.(check string) "sharded_to_json bytes" json_golden
    (Analyze.sharded_to_json (hand_stats ()))

let test_shard_chrome_golden () =
  Alcotest.(check string) "shard chrome bytes" chrome_golden
    (Export.shard_chrome_string (hand_stats ()))

let test_hand_stats_counters () =
  let st = hand_stats () in
  Alcotest.(check int) "windows" 3 (Shard_stats.windows st);
  Alcotest.(check int) "events" 19 (Shard_stats.total_events st);
  Alcotest.(check int) "posted" 3 (Shard_stats.posted_total st);
  Alcotest.(check int) "drained" 3 (Shard_stats.drained_total st);
  Alcotest.(check int) "pending" 0 (Shard_stats.pending st);
  Alcotest.(check int) "peak ints" 18 (Shard_stats.peak_mail_ints st);
  Alcotest.(check int) "epilogue msgs" 1 (Shard_stats.epilogue_mail_msgs st);
  let limit i = Shard_stats.limit_to_string (Shard_stats.limit st i) in
  Alcotest.(check string) "w0 lookahead-limited" "lookahead" (limit 0);
  Alcotest.(check string) "w1 queue-limited" "queue" (limit 1);
  Alcotest.(check string) "w2 horizon-limited" "horizon" (limit 2)

(* {2 JSON round trip} *)

let test_json_round_trip () =
  let st = hand_stats () in
  let json1 = Analyze.sharded_to_json st in
  match Json.of_string json1 with
  | Error e -> Alcotest.fail ("shardstats json unparsable: " ^ e)
  | Ok doc -> (
      match Shard_stats.of_json doc with
      | Error e -> Alcotest.fail ("of_json rejected own dump: " ^ e)
      | Ok st2 ->
          Alcotest.(check string) "re-dump is byte-identical" json1
            (Analyze.sharded_to_json st2))

let test_json_round_trip_real_run () =
  let exec, _ = run_hall ~seed:42L ~shards:3 in
  let st = Option.get (Exec.stats exec) in
  let json1 = Analyze.sharded_to_json st in
  match Json.of_string json1 with
  | Error e -> Alcotest.fail ("shardstats json unparsable: " ^ e)
  | Ok doc -> (
      match Shard_stats.of_json doc with
      | Error e -> Alcotest.fail ("of_json rejected own dump: " ^ e)
      | Ok st2 ->
          Alcotest.(check string) "re-dump is byte-identical" json1
            (Analyze.sharded_to_json st2))

let test_of_json_rejects_garbage () =
  (match Shard_stats.of_json (Json.Str "nope") with
  | Ok _ -> Alcotest.fail "accepted a string"
  | Error _ -> ());
  match Json.of_string "{\"schema\":\"psn-shardstats/1\"}" with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
      match Shard_stats.of_json doc with
      | Ok _ -> Alcotest.fail "accepted a document with no counters"
      | Error _ -> ())

(* {2 Merged chrome: per-sink tid blocks} *)

let test_merged_chrome_tids () =
  let span sink ~time ~pid name =
    Trace.emit sink ~time ~pid (Trace.Span_begin { name; lane = 0 });
    Trace.emit sink ~time:(time + 10) ~pid (Trace.Span_end { name; lane = 0 })
  in
  let sink_a = Trace.create () in
  let sink_b = Trace.create () in
  span sink_a ~time:0 ~pid:1 "w";
  span sink_b ~time:5 ~pid:2 "w";
  let doc = Export.chrome_string [ sink_a; sink_b ] in
  (match Json.of_string doc with
  | Error e -> Alcotest.fail ("merged chrome unparsable: " ^ e)
  | Ok _ -> ());
  let contains needle =
    let nl = String.length needle and dl = String.length doc in
    let rec go i = i + nl <= dl && (String.sub doc i nl = needle || go (i + 1)) in
    go 0
  in
  (* sink 0 keeps tid block 0, sink 1 is shifted to its own block —
     the two groups' lane-0 spans must not collide on one row.  The
     exporter maps trace pid p to chrome pid p + 1. *)
  Alcotest.(check bool) "sink 0 span on tid 0" true
    (contains "\"pid\":2,\"tid\":0");
  Alcotest.(check bool) "sink 1 span on shifted tid" true
    (contains "\"pid\":3,\"tid\":2");
  Alcotest.(check bool) "no sink-1 span on tid 0" false
    (contains "\"pid\":3,\"tid\":0")

(* {2 Report breakdown and core projection} *)

let test_report_breakdown () =
  let _exec, report = run_hall ~seed:7L ~shards:2 in
  let s = Fmt.str "%a" Psn.Report.pp report in
  let contains needle =
    let nl = String.length needle and dl = String.length s in
    let rec go i = i + nl <= dl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "pp has shard breakdown" true (contains "shards=2");
  Alcotest.(check bool) "pp has per-shard rows" true (contains "shard 0:");
  let core = Fmt.str "%a" Psn.Report.pp (Psn.Report.core report) in
  Alcotest.(check bool) "core erases the breakdown" false
    (let nl = String.length "shards=" and dl = String.length core in
     let rec go i =
       i + nl <= dl && (String.sub core i nl = "shards=" || go (i + 1))
     in
     go 0)

(* {2 Profile phases} *)

let test_profile_phases () =
  let prof = Profile.create () in
  Profile.with_default prof (fun () ->
      ignore (run_hall ~seed:11L ~shards:2));
  let names = List.map (fun p -> p.Profile.name) (Profile.phases prof) in
  let has n = List.mem n names in
  Alcotest.(check bool) "sharded.window phase" true (has "sharded.window");
  Alcotest.(check bool) "sharded.drain phase" true (has "sharded.drain");
  let window =
    List.find (fun p -> p.Profile.name = "sharded.window") (Profile.phases prof)
  in
  Alcotest.(check bool) "window phase entered per round" true
    (window.Profile.count > 0)

(* Regenerate the goldens above with:
   DUMP_SHARDSTATS_GOLDEN=1 dune exec test/test_shardstats.exe *)
let () =
  match Sys.getenv_opt "DUMP_SHARDSTATS_GOLDEN" with
  | Some _ ->
      let st = hand_stats () in
      print_string "===RENDER===\n";
      print_string (Analyze.render_sharded st);
      print_string "===JSON===\n";
      print_string (Analyze.sharded_to_json st);
      print_string "\n===CHROME===\n";
      print_string (Export.shard_chrome_string st);
      print_string "\n===END===\n";
      exit 0
  | None -> ()

let () =
  Alcotest.run "shardstats"
    [
      ("conservation", [ test_conservation ]);
      ( "goldens",
        [
          Alcotest.test_case "hand-built counters" `Quick
            test_hand_stats_counters;
          Alcotest.test_case "render bytes" `Quick test_render_golden;
          Alcotest.test_case "json bytes" `Quick test_json_golden;
          Alcotest.test_case "shard chrome bytes" `Quick
            test_shard_chrome_golden;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip (hand-built)" `Quick
            test_json_round_trip;
          Alcotest.test_case "round trip (real run)" `Quick
            test_json_round_trip_real_run;
          Alcotest.test_case "rejects garbage" `Quick
            test_of_json_rejects_garbage;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "merged sinks get distinct tid blocks" `Quick
            test_merged_chrome_tids;
        ] );
      ( "report",
        [
          Alcotest.test_case "pp shard breakdown + core projection" `Quick
            test_report_breakdown;
        ] );
      ( "profile",
        [ Alcotest.test_case "engine phases recorded" `Quick
            test_profile_phases ] );
    ]
