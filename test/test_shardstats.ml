(* Shard-aware observability: conservation invariants of the
   [Shard_stats] arena against real sharded runs, byte-goldens of the
   analyzer renderings on a hand-built deterministic stats object, the
   kept rows and running totals past the kept chunk (against the
   all-rows fold as oracle), the JSON round trip
   behind [psn-sim shardstats FILE], the merged-chrome
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

(* The per-shard event totals must sum to exactly the engine total;
   every cross-shard message posted must have been drained (into a
   committed round or the epilogue); each round's traffic matrix must
   agree with its message count.  The runs stay under 1024 rounds, so
   every row is kept and the rows must sum to the running totals. *)
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
      let tot_traffic = ref 0 in
      for i = 0 to Shard_stats.kept_rows st - 1 do
        sum_msgs := !sum_msgs + Shard_stats.mail_msgs st i;
        for s = 0 to shards - 1 do
          sum_events := !sum_events + Shard_stats.events st i ~shard:s;
          for d = 0 to shards - 1 do
            sum_traffic := !sum_traffic + Shard_stats.traffic st i ~src:s ~dst:d
          done
        done
      done;
      for s = 0 to shards - 1 do
        for d = 0 to shards - 1 do
          tot_traffic := !tot_traffic + Shard_stats.sum_traffic st ~src:s ~dst:d
        done
      done;
      let check name got want =
        if got <> want then
          QCheck.Test.fail_reportf "%s: %d <> %d (seed=%d K=%d)" name got want
            seed shards
      in
      check "windows" w (Exec.windows exec);
      check "every row kept" (Shard_stats.kept_rows st) w;
      check "events" (Shard_stats.total_events st) (Exec.events_processed exec);
      check "row events" !sum_events (Shard_stats.total_events st);
      check "row traffic" !sum_traffic !tot_traffic;
      check "traffic vs msgs" !sum_traffic !sum_msgs;
      check "drained"
        (!tot_traffic + Shard_stats.epilogue_mail_msgs st)
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
  {golden|{"schema":"psn-shardstats/2","shards":2,"lookahead_ns":1000000,"totals":{"windows":3,"events":19,"posted":3,"drained":3,"pending":0,"peak_mailbox_ints":18,"run_wall_ns":25000,"epilogue_drain_ns":200,"epilogue_fold_ns":100,"epilogue_mail_msgs":1,"lookahead_limited":1,"queue_limited":1,"horizon_limited":1,"drain_ns":2100,"fold_ns":1050,"par_ns":10800,"shard_events":[12,7],"shard_busy_ns":[8000,4600],"shard_wait_ns":[2800,6200],"traffic":[0,2,0,0],"sum_max_busy_ns":9500,"sum_max_events":13,"dispatch_ns":100,"amdahl_turns_ns":[12600,9500,9500,9500,9500,9500]},"windows":[{"start_ns":0,"end_ns":1000000,"limit":"lookahead","drain_ns":1000,"fold_ns":500,"par_ns":5000,"mail_msgs":0,"mail_ints":0,"events":[5,3],"busy_ns":[4000,2000]},{"start_ns":1500000,"end_ns":2500000,"limit":"queue","drain_ns":800,"fold_ns":400,"par_ns":3200,"mail_msgs":2,"mail_ints":18,"events":[4,0],"busy_ns":[3000,100],"traffic":[0,2,0,0]},{"start_ns":5000000,"end_ns":5200000,"limit":"horizon","drain_ns":300,"fold_ns":150,"par_ns":2600,"mail_msgs":0,"mail_ints":0,"events":[3,4],"busy_ns":[1000,2500]}],"analysis":{"wall_ns":25000,"attribution":{"parallel_ns":10800,"drain_ns":2300,"fold_ns":1150,"other_ns":10750,"busy_ns":12600,"critical_ns":9500,"dispatch_ns":100,"parallel_frac":0.432,"serial_frac":0.56799999999999995},"limits":{"lookahead":1,"queue":1,"horizon":1},"imbalance":{"events":1.368421052631579,"busy":1.5079365079365079},"per_shard":[{"shard":0,"events":12,"busy_ns":8000,"wait_ns":2800,"sent":2,"recv":0},{"shard":1,"events":7,"busy_ns":4600,"wait_ns":6200,"sent":0,"recv":2}],"amdahl":{"cores":[1,2,4,8,16,32],"speedup":[1.0,1.1302521008403361,1.1302521008403361,1.1302521008403361,1.1302521008403361,1.1302521008403361],"limit":1.1302521008403361}}}|golden}

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

(* [doc] with the member at [path] (object keys, outermost first)
   passed through [f]. *)
let rec edit path f doc =
  match (path, doc) with
  | [], _ -> f doc
  | key :: rest, Json.Obj members ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = key then (k, edit rest f v) else (k, v))
           members)
  | _ -> doc

let test_of_json_rejects_garbage () =
  let rejects what doc =
    match Shard_stats.of_json doc with
    | Ok _ -> Alcotest.failf "accepted %s" what
    | Error e -> e
  in
  ignore (rejects "a string" (Json.Str "nope"));
  (match Json.of_string "{\"schema\":\"psn-shardstats/2\"}" with
  | Error e -> Alcotest.fail e
  | Ok doc -> ignore (rejects "a document with no counters" doc));
  let doc = Json.Obj (Shard_stats.raw_members (hand_stats ())) in
  let e =
    rejects "schema /1"
      (edit [ "schema" ] (fun _ -> Json.Str "psn-shardstats/1") doc)
  in
  Alcotest.(check bool) "the error names the schema" true
    (let needle = "psn-shardstats/1" in
     let nl = String.length needle in
     let rec go i =
       i + nl <= String.length e && (String.sub e i nl = needle || go (i + 1))
     in
     go 0);
  let drop_last = function
    | Json.List l -> Json.List (List.filteri (fun i _ -> i > 0) l)
    | j -> j
  in
  let grow = function Json.List (x :: l) -> Json.List (x :: x :: l) | j -> j in
  ignore (rejects "more rows than windows" (edit [ "windows" ] grow doc));
  ignore (rejects "fewer rows than windows" (edit [ "windows" ] drop_last doc));
  List.iter
    (fun key ->
      ignore
        (rejects ("a short totals." ^ key)
           (edit [ "totals"; key ] drop_last doc)))
    [ "shard_events"; "shard_busy_ns"; "shard_wait_ns"; "traffic";
      "amdahl_turns_ns" ];
  ignore
    (rejects "a short row events list"
       (edit [ "windows" ]
          (function
            | Json.List (r :: rest) ->
                Json.List (edit [ "events" ] drop_last r :: rest)
            | j -> j)
          doc))

(* {2 Kept rows and running totals}

   The first 1024 rounds' rows are kept; every round is folded into the
   running totals [Analyze.sharded] reads.  [many_windows n]
   hand-records [n] two-shard windows with a distinct value in every
   field the API lets the caller choose: row [w]'s slot [f] holds
   [cell w f].  The limit cycles lookahead / queue / horizon, and
   [mail_msgs] is the sum of the traffic cells.  A round that opens no
   window is aborted at rows 1024 and 2048; its [classify_prev] settles
   the round before, the last kept one at 1024.  The oracle derives the
   analysis by folding every round's row. *)

let chunk_rows = 1024
let cell w f = (w * 64) + f + 1

let limit_of w =
  match w mod 3 with
  | 0 -> Shard_stats.Lookahead
  | 1 -> Shard_stats.Queue
  | _ -> Shard_stats.Horizon

let many_windows n =
  let la = 1_000_000 in
  let st = Shard_stats.create ~shards:2 ~lookahead_ns:la in
  let cum = Array.make 2 0 in
  (* The next round's global minimum that settles row [w - 1]. *)
  let settle w =
    if w > 0 then
      let prev_end = cell (w - 1) 1 in
      Shard_stats.classify_prev st
        ~next_ns:
          (if limit_of (w - 1) = Shard_stats.Lookahead then prev_end
           else prev_end + la)
  in
  for w = 0 to n - 1 do
    if w mod chunk_rows = 0 && w > 0 then begin
      Shard_stats.round_begin st;
      Shard_stats.note_traffic st ~src:1 ~dst:0 ~msgs:5;
      Shard_stats.note_occupancy st ~ints:3;
      Shard_stats.drain_done st ~host_ns:7;
      Shard_stats.fold_done st ~host_ns:11;
      settle w;
      Shard_stats.round_abort st
    end;
    Shard_stats.round_begin st;
    for i = 0 to 3 do
      Shard_stats.note_traffic st ~src:(i / 2) ~dst:(i mod 2)
        ~msgs:(cell w (12 + i))
    done;
    Shard_stats.note_occupancy st ~ints:(cell w 7);
    Shard_stats.drain_done st ~host_ns:(cell w 3);
    Shard_stats.fold_done st ~host_ns:(cell w 4);
    settle w;
    Shard_stats.window_open st ~start_ns:(cell w 0) ~end_ns:(cell w 1);
    Shard_stats.note_posted st ~src:(w mod 2);
    for s = 0 to 1 do
      cum.(s) <- cum.(s) + cell w (8 + s);
      Shard_stats.shard_report st ~shard:s ~events_total:cum.(s)
        ~busy_ns:(cell w (10 + s))
    done;
    Shard_stats.window_close st
      ~clipped:(limit_of w = Shard_stats.Horizon)
      ~par_ns:(cell w 5)
  done;
  Shard_stats.round_begin st;
  settle n;
  Shard_stats.round_abort st;
  Shard_stats.run_done st ~wall_ns:123_456;
  st

(* Round [w] as [many_windows] recorded it. *)
type model_row = {
  m_limit : Shard_stats.limit;
  m_drain : int;
  m_fold : int;
  m_par : int;
  m_events : int array;
  m_busy : int array;
  m_traffic : int array; (* src * k + dst *)
}

let model_row w =
  {
    m_limit = limit_of w;
    m_drain = cell w 3;
    m_fold = cell w 4;
    m_par = cell w 5;
    m_events = Array.init 2 (fun s -> cell w (8 + s));
    m_busy = Array.init 2 (fun s -> cell w (10 + s));
    m_traffic = Array.init 4 (fun i -> cell w (12 + i));
  }

(* [Analyze.sharded] as a fold over every round's row; the all-run
   counters (wall, epilogue, mail) come from [st]. *)
let oracle_sharded st rows =
  let k = Shard_stats.shards st in
  let limits = [| 0; 0; 0 |] in
  let drain = ref (Shard_stats.epilogue_drain_ns st) in
  let fold = ref (Shard_stats.epilogue_fold_ns st) in
  let par = ref 0 and busy_tot = ref 0 and crit = ref 0 in
  let dispatch = ref 0 and sum_max_e = ref 0 and sum_e = ref 0 in
  let events = Array.make k 0 and busy = Array.make k 0 in
  let wait = Array.make k 0 in
  let sent = Array.make k 0 and recv = Array.make k 0 in
  Array.iter
    (fun r ->
      let li =
        match r.m_limit with
        | Shard_stats.Lookahead -> 0
        | Shard_stats.Queue -> 1
        | Shard_stats.Horizon -> 2
      in
      limits.(li) <- limits.(li) + 1;
      drain := !drain + r.m_drain;
      fold := !fold + r.m_fold;
      let p = r.m_par in
      par := !par + p;
      let bw = ref 0 and max_b = ref 0 and max_e = ref 0 in
      for s = 0 to k - 1 do
        let e = r.m_events.(s) and b = r.m_busy.(s) in
        events.(s) <- events.(s) + e;
        busy.(s) <- busy.(s) + b;
        wait.(s) <- wait.(s) + max 0 (p - b);
        bw := !bw + b;
        if b > !max_b then max_b := b;
        if e > !max_e then max_e := e;
        sum_e := !sum_e + e
      done;
      busy_tot := !busy_tot + !bw;
      crit := !crit + !max_b;
      dispatch := !dispatch + max 0 (p - !bw);
      sum_max_e := !sum_max_e + !max_e;
      for src = 0 to k - 1 do
        for dst = 0 to k - 1 do
          let m = r.m_traffic.((src * k) + dst) in
          sent.(src) <- sent.(src) + m;
          recv.(dst) <- recv.(dst) + m
        done
      done)
    rows;
  let serial = !drain + !fold in
  let wall =
    let m = Shard_stats.run_wall_ns st in
    if m > 0 then m else serial + !dispatch + !busy_tot
  in
  let other = max 0 (wall - !par - serial) in
  let t_of cores =
    Array.fold_left
      (fun acc r ->
        let bw = Array.fold_left ( + ) 0 r.m_busy in
        acc + max (Array.fold_left max 0 r.m_busy) ((bw + cores - 1) / cores))
      (serial + other + !dispatch)
      rows
  in
  let t1 = serial + other + !dispatch + !busy_tot in
  let speedup tc = if tc <= 0 then 1.0 else float_of_int t1 /. float_of_int tc in
  let cores =
    let base = [ 1; 2; 4; 8; 16; 32 ] in
    if List.mem k base then base else List.sort_uniq compare (k :: base)
  in
  let frac num =
    if wall <= 0 then 0.0 else float_of_int num /. float_of_int wall
  in
  let imb sum_max sum =
    if sum <= 0 then 1.0 else float_of_int (k * sum_max) /. float_of_int sum
  in
  {
    Analyze.sr_shards = k;
    sr_lookahead_ns = Shard_stats.lookahead_ns st;
    sr_windows = Array.length rows;
    sr_events = !sum_e;
    sr_limit_lookahead = limits.(0);
    sr_limit_queue = limits.(1);
    sr_limit_horizon = limits.(2);
    sr_wall_ns = wall;
    sr_par_ns = !par;
    sr_drain_ns = !drain;
    sr_fold_ns = !fold;
    sr_other_ns = other;
    sr_busy_ns = !busy_tot;
    sr_critical_ns = !crit;
    sr_dispatch_ns = !dispatch;
    sr_parallel_frac = frac !par;
    sr_serial_frac = (if wall <= 0 then 0.0 else frac (max 0 (wall - !par)));
    sr_imbalance_events = imb !sum_max_e !sum_e;
    sr_imbalance_busy = imb !crit !busy_tot;
    sr_cross_msgs = Shard_stats.drained_total st;
    sr_pending = Shard_stats.pending st;
    sr_peak_mail_ints = Shard_stats.peak_mail_ints st;
    sr_per_shard =
      Array.init k (fun s ->
          {
            Analyze.sh_events = events.(s);
            sh_busy_ns = busy.(s);
            sh_wait_ns = wait.(s);
            sh_sent = sent.(s);
            sh_recv = recv.(s);
          });
    sr_amdahl =
      Array.of_list (List.map (fun c -> (c, speedup (t_of c))) cores);
    sr_amdahl_limit = speedup (serial + other + !dispatch + !crit);
  }

let check_many_windows name st n =
  Alcotest.(check int) (name ^ ": windows") n (Shard_stats.windows st);
  let kept = min n chunk_rows in
  Alcotest.(check int) (name ^ ": kept rows") kept (Shard_stats.kept_rows st);
  for w = 0 to kept - 1 do
    let field f got =
      if got <> cell w f then
        Alcotest.failf "%s: window %d slot %d reads %d, wrote %d" name w f got
          (cell w f)
    in
    field 0 (Shard_stats.start_ns st w);
    field 1 (Shard_stats.end_ns st w);
    field 3 (Shard_stats.drain_ns st w);
    field 4 (Shard_stats.fold_ns st w);
    field 5 (Shard_stats.par_ns st w);
    field 7 (Shard_stats.mail_ints st w);
    for s = 0 to 1 do
      field (8 + s) (Shard_stats.events st w ~shard:s);
      field (10 + s) (Shard_stats.busy_ns st w ~shard:s)
    done;
    let row_msgs = ref 0 in
    for i = 0 to 3 do
      field (12 + i) (Shard_stats.traffic st w ~src:(i / 2) ~dst:(i mod 2));
      row_msgs := !row_msgs + cell w (12 + i)
    done;
    if Shard_stats.mail_msgs st w <> !row_msgs then
      Alcotest.failf "%s: window %d mail_msgs %d <> %d" name w
        (Shard_stats.mail_msgs st w) !row_msgs;
    if Shard_stats.limit st w <> limit_of w then
      Alcotest.failf "%s: window %d limit %s, expected %s" name w
        (Shard_stats.limit_to_string (Shard_stats.limit st w))
        (Shard_stats.limit_to_string (limit_of w))
  done;
  (* Every per-row reader refuses a round that is not kept. *)
  let readers =
    [
      ("start_ns", Shard_stats.start_ns st);
      ("end_ns", Shard_stats.end_ns st);
      ("limit", fun w -> ignore (Shard_stats.limit st w); 0);
      ("drain_ns", Shard_stats.drain_ns st);
      ("fold_ns", Shard_stats.fold_ns st);
      ("par_ns", Shard_stats.par_ns st);
      ("mail_msgs", Shard_stats.mail_msgs st);
      ("mail_ints", Shard_stats.mail_ints st);
      ("events", Shard_stats.events st ~shard:1);
      ("busy_ns", Shard_stats.busy_ns st ~shard:1);
      ("traffic", Shard_stats.traffic st ~src:1 ~dst:0);
    ]
  in
  List.iter
    (fun w ->
      List.iter
        (fun (what, read) ->
          match read w with
          | _ -> Alcotest.failf "%s: %s of round %d did not raise" name what w
          | exception Invalid_argument _ -> ())
        readers)
    [ -1; chunk_rows; n - 1 ];
  let rows = Array.init n model_row in
  let events = ref 0 and msgs = ref 0 in
  Array.iter
    (fun r ->
      events := !events + Array.fold_left ( + ) 0 r.m_events;
      msgs := !msgs + Array.fold_left ( + ) 0 r.m_traffic)
    rows;
  let aborts = (n - 1) / chunk_rows in
  let check what want got = Alcotest.(check int) (name ^ ": " ^ what) want got in
  check "events" !events (Shard_stats.total_events st);
  check "posted" n (Shard_stats.posted_total st);
  check "drained" (!msgs + (5 * aborts)) (Shard_stats.drained_total st);
  check "peak ints" (cell (n - 1) 7) (Shard_stats.peak_mail_ints st);
  check "run wall" 123_456 (Shard_stats.run_wall_ns st);
  check "epilogue drain" (7 * aborts) (Shard_stats.epilogue_drain_ns st);
  check "epilogue fold" (11 * aborts) (Shard_stats.epilogue_fold_ns st);
  check "epilogue msgs" (5 * aborts) (Shard_stats.epilogue_mail_msgs st);
  let got = Analyze.sharded st and want = oracle_sharded st rows in
  Alcotest.(check (array (pair int (float 0.0))))
    (name ^ ": Amdahl curve") want.Analyze.sr_amdahl got.Analyze.sr_amdahl;
  Alcotest.(check bool)
    (name ^ ": every Analyze.sharded field equals the row fold")
    true (got = want)

let test_many_windows () =
  let n = (2 * chunk_rows) + 452 in
  let st = many_windows n in
  check_many_windows "recorded" st n;
  match Shard_stats.of_json (Json.Obj (Shard_stats.raw_members st)) with
  | Error e -> Alcotest.fail ("of_json rejected raw_members: " ^ e)
  | Ok st2 -> check_many_windows "reloaded" st2 n

(* A real K = 2 stream far past the kept rows: 10 000 s give about
   5 800 rounds, a bit under six per 10 s of stream.  Its dump holds
   the totals and the first 1024 rows, and re-analyzes to the same
   bytes. *)
let test_json_round_trip_many_chunks () =
  let cfg =
    let d = Sharded.stream_default.Sharded.s_detect in
    { Sharded.stream_default with
      Sharded.s_detect = { d with horizon = Sim_time.of_sec 10_000 } }
  in
  let exec =
    Exec.sharded ~seed:42L ~shards:2
      ~lookahead:(Delay_model.min_delay cfg.Sharded.s_detect.delay)
      ()
  in
  ignore (Sharded.stream ~cfg exec);
  let st = Option.get (Exec.stats exec) in
  Alcotest.(check bool) "windows span more than three chunks" true
    (Shard_stats.windows st > 3 * chunk_rows);
  Alcotest.(check int) "rows kept" chunk_rows (Shard_stats.kept_rows st);
  let json1 = Analyze.sharded_to_json st in
  match Json.of_string json1 with
  | Error e -> Alcotest.fail ("shardstats json unparsable: " ^ e)
  | Ok doc -> (
      match Shard_stats.of_json doc with
      | Error e -> Alcotest.fail ("of_json rejected own dump: " ^ e)
      | Ok st2 ->
          Alcotest.(check string) "re-dump is byte-identical" json1
            (Analyze.sharded_to_json st2))

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
      ( "chunks",
        [
          Alcotest.test_case "every field of three chunks of rows" `Quick
            test_many_windows;
          Alcotest.test_case "round trip (K = 2 stream, several chunks)"
            `Quick test_json_round_trip_many_chunks;
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
