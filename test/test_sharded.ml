(* Differential suite for the sharded execution substrate.

   The correctness contract: a shard-aware workload produces identical
   observable results — report, occurrences, merged trace bytes, causal
   frontier — on the single-queue oracle and on the sharded engine at
   any shard count.  Every test here builds the same workload twice
   (same seed) and compares verbatim; [compare ... = 0] rather than
   [=] so NaN summary fields (zero-detection runs) compare equal. *)

module Engine = Psn_sim.Engine
module Exec = Psn_sim.Exec
module Sim_time = Psn_sim.Sim_time
module Delay_model = Psn_sim.Delay_model
module Loss_model = Psn_sim.Loss_model
module Rng = Psn_util.Rng
module Parallel = Psn_util.Parallel
module Trace = Psn_obs.Trace
module Export = Psn_obs.Export
module Metrics = Psn_obs.Metrics
module Profile = Psn_obs.Profile
module Expr = Psn_predicates.Expr
module Value = Psn_world.Value
module Sharded_detector = Psn_detection.Sharded_detector
module Sharded = Psn_scenarios.Sharded

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let ms = Sim_time.of_ms
let shard_counts = [ 1; 2; 4 ]

let delay_small =
  Delay_model.bounded_uniform ~min:(ms 5) ~max:(ms 60)

(* Run one workload on every substrate: the single oracle and sharded
   K in {1,2,4}.  [build] receives the substrate and per-group sinks
   and returns whatever observable the caller compares. *)
let on_substrates ~seed ~groups ~lookahead build =
  let run exec =
    let sinks = Array.init groups (fun _ -> Trace.create ()) in
    let obs = build exec sinks in
    (obs, Export.merged_jsonl (Array.to_list sinks))
  in
  let oracle = run (Exec.single ~seed ()) in
  let sharded =
    List.map
      (fun k -> (k, run (Exec.sharded ~seed ~shards:k ~lookahead ())))
      shard_counts
  in
  (oracle, sharded)

let substrate_invariant ~seed ~groups ~lookahead build =
  let (obs0, trace0), sharded = on_substrates ~seed ~groups ~lookahead build in
  List.for_all
    (fun (k, (obs, trace)) ->
      let ok = compare obs0 obs = 0 && String.equal trace0 trace in
      if not ok then
        QCheck.Test.fail_reportf
          "substrate divergence at K=%d: report %s, trace %s (lengths %d vs %d)"
          k
          (if compare obs0 obs = 0 then "equal" else "DIFFERS")
          (if String.equal trace0 trace then "equal" else "DIFFERS")
          (String.length trace0) (String.length trace);
      ok)
    sharded

(* {2 Scenario differentials: hall / banking / hospital} *)

let small_detect =
  {
    Sharded.default_detect with
    groups = 4;
    flush_period = ms 100;
    horizon = Sim_time.of_sec 120;
    delay = delay_small;
  }

let test_hall_differential =
  qtest ~count:6 "hall: report + merged trace identical across substrates"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        { Sharded.hall_default with
          doors = 16; visitors = 24; capacity = 6; detect = small_detect }
      in
      substrate_invariant ~seed:(Int64.of_int seed) ~groups:4
        ~lookahead:(Delay_model.min_delay delay_small)
        (fun exec sinks -> Psn.Report.core (Sharded.hall ~cfg ~sinks exec)))

let test_banking_differential =
  qtest ~count:6 "banking: report + merged trace identical across substrates"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        { Sharded.banking_default with
          tellers = 10; quorum = 3; detect = small_detect }
      in
      substrate_invariant ~seed:(Int64.of_int seed) ~groups:4
        ~lookahead:(Delay_model.min_delay delay_small)
        (fun exec sinks -> Psn.Report.core (Sharded.banking ~cfg ~sinks exec)))

let test_hospital_differential =
  qtest ~count:6 "hospital: report + merged trace identical across substrates"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        { Sharded.wards = 12; sample_period = 8.0; threshold = 102;
          detect = small_detect }
      in
      substrate_invariant ~seed:(Int64.of_int seed) ~groups:4
        ~lookahead:(Delay_model.min_delay delay_small)
        (fun exec sinks -> Psn.Report.core (Sharded.hospital ~cfg ~sinks exec)))

let test_calm_differential =
  qtest ~count:6 "calm: report + merged trace identical across substrates"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        { Sharded.calm_default with monitors = 10; detect = small_detect }
      in
      substrate_invariant ~seed:(Int64.of_int seed) ~groups:4
        ~lookahead:(Delay_model.min_delay delay_small)
        (fun exec sinks -> Psn.Report.core (Sharded.calm ~cfg ~sinks exec)))

(* {2 Checker backends}

   The two predicate-evaluation backends must agree on everything a run
   reports.  [Interp] is the interpreted reference checker; [Compiled]
   replays it.  Both evaluate centrally on the checker, with no protocol
   events of their own, so whole reports (including [sim_events] and
   [metrics]) and merged trace bytes must be equal, on the single queue
   and at every K. *)

let backends_agree ~seed ~groups name run =
  let with_checker checker mk =
    let sinks = Array.init groups (fun _ -> Trace.create ()) in
    let r = run checker ~sinks (mk ()) in
    (r, Export.merged_jsonl (Array.to_list sinks))
  in
  let substrates =
    ("single", fun () -> Exec.single ~seed ())
    :: List.map
         (fun k ->
           ( Printf.sprintf "K=%d" k,
             fun () ->
               Exec.sharded ~seed ~shards:k
                 ~lookahead:(Delay_model.min_delay delay_small) () ))
         shard_counts
  in
  List.for_all
    (fun (substrate, mk) ->
      let r0, trace0 = with_checker Sharded_detector.Interp mk in
      let r, trace = with_checker Sharded_detector.Compiled mk in
      let ok = compare r0 r = 0 && String.equal trace0 trace in
      if not ok then
        QCheck.Test.fail_reportf
          "%s on %s: Compiled diverges from Interp: report %s, trace %s" name
          substrate
          (if compare r0 r = 0 then "equal" else "DIFFERS")
          (if String.equal trace0 trace then "equal" else "DIFFERS");
      ok)
    substrates

(* At the default limit the conjunction never holds within the
   horizon; these limits make it rise on most seeds (10 monitors at 90:
   every seed of 0..9; 64 monitors at 95: eight of them). *)
let calm_with ~monitors ~groups ~limit checker ~sinks exec =
  let cfg =
    { Sharded.calm_default with
      monitors;
      limit;
      detect = { small_detect with groups; checker } }
  in
  Sharded.calm ~cfg ~sinks exec

let test_calm_backends =
  qtest ~count:4 "calm: Compiled report + trace equal Interp's"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let seed = Int64.of_int seed in
      backends_agree ~seed ~groups:4 "calm"
        (calm_with ~monitors:10 ~groups:4 ~limit:90)
      && backends_agree ~seed ~groups:8 "wide calm (64 monitors)"
           (calm_with ~monitors:64 ~groups:8 ~limit:95))

let test_relational_backends =
  qtest ~count:6 "banking: Compiled report + trace equal Interp's"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      backends_agree ~seed:(Int64.of_int seed) ~groups:4 "banking"
        (fun checker ~sinks exec ->
          let cfg =
            { Sharded.banking_default with
              tellers = 10;
              quorum = 3;
              detect = { small_detect with checker } }
          in
          Sharded.banking ~cfg ~sinks exec))

(* {2 Random scripts with churn and loss}

   Each process gets an arrival and a departure time (churn) and emits
   a value walk in between; messages cross a lossy link.  The script is
   derived purely from the seed, so both substrates construct the same
   one; causal stamp planes are on, so the checker's merged frontier is
   compared too. *)

let script_observables ~seed ~n ~groups ~loss_p exec sinks =
  let horizon = Sim_time.of_sec 90 in
  let cfg =
    {
      Sharded_detector.n;
      groups;
      group_of = (fun pid -> pid * groups / n);
      eps = ms 10;
      hold = ms 400;
      flush_period = ms 100;
      causal_stamps = true;
    }
  in
  let predicate =
    Expr.(sum (List.init n (fun i -> var ~name:"v" ~loc:i)) >? int (n * 55))
  in
  let det =
    Sharded_detector.create ~loss:(Loss_model.bernoulli loss_p) ~sinks exec
      ~cfg ~delay:delay_small ~predicate ()
  in
  let h = Sim_time.to_sec_float horizon in
  for pid = 0 to n - 1 do
    let rng =
      Rng.create
        ~seed:(Int64.add seed (Int64.mul (Int64.of_int (pid + 7)) 0x2545F4914F6CDD1DL))
        ()
    in
    let arrival = Rng.float rng (h /. 3.0) in
    let departure = h -. Rng.float rng (h /. 3.0) in
    let engine = Exec.engine exec ~group:(cfg.group_of pid) in
    let v = ref 50 in
    let rec emits t =
      let t' = t +. Rng.exponential rng ~mean:2.5 in
      if t' < departure then begin
        Engine.schedule_at_unit engine (Sim_time.of_sec_float t') (fun () ->
            v := Stdlib.max 0 (Stdlib.min 100 (!v + Rng.int rng 21 - 10));
            Sharded_detector.emit det ~src:pid ~var:"v" ~value:!v);
        emits t'
      end
    in
    emits arrival
  done;
  Exec.run exec ~until:horizon;
  ( Sharded_detector.updates det,
    Sharded_detector.occurrences det,
    Sharded_detector.frontier det,
    Exec.events_processed exec,
    Exec.merged_metrics exec )

let test_script_differential =
  qtest ~count:8 "random scripts (churn + loss): observables substrate-invariant"
    QCheck.(triple (int_range 0 10_000) (int_range 6 18) (int_range 0 30))
    (fun (seed, n, loss_pct) ->
      let groups = 1 + (n / 4) in
      substrate_invariant ~seed:(Int64.of_int seed) ~groups
        ~lookahead:(Delay_model.min_delay delay_small)
        (script_observables ~seed:(Int64.of_int seed) ~n ~groups
           ~loss_p:(float_of_int loss_pct /. 100.0)))

(* {2 Lookahead: Delay_model.min_delay} *)

let models_with_names =
  [
    ("synchronous", Delay_model.synchronous);
    ("bounded_uniform", Delay_model.bounded_uniform ~min:(ms 3) ~max:(ms 40));
    ("bounded_exponential",
     Delay_model.bounded_exponential ~mean:(ms 10) ~cap:(ms 200));
    ("unbounded_exponential", Delay_model.unbounded_exponential ~mean:(ms 10));
    ("unbounded_pareto",
     Delay_model.unbounded_pareto ~scale:(ms 2) ~shape:1.5);
  ]

let test_min_delay_bound =
  qtest ~count:40 "min_delay: every sampled delay respects the bound"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      List.for_all
        (fun (name, m) ->
          let lo = Delay_model.min_delay m in
          let ok = ref true in
          for _ = 1 to 500 do
            if Sim_time.( < ) (Delay_model.sample m rng) lo then ok := false
          done;
          if not !ok then
            QCheck.Test.fail_reportf "%s sampled below its min_delay" name;
          !ok)
        models_with_names)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_zero_lookahead_rejected () =
  List.iter
    (fun bad ->
      match Exec.sharded ~shards:2 ~lookahead:bad () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "zero/negative lookahead must be rejected")
    [ Sim_time.zero ];
  (* The message should steer users toward min_delay. *)
  (match Exec.sharded ~shards:2 ~lookahead:Sim_time.zero () with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "mentions lookahead" true (contains msg "lookahead")
  | _ -> Alcotest.fail "expected Invalid_argument")

let test_lookahead_violation () =
  (* A group-0 event at 100 ms opens the window [100, 110) ms and posts
     to group 1 at 101 ms — inside it, below the promised lookahead.
     The barrier drain must refuse the message rather than deliver it
     into group 1's past. *)
  let t = Exec.sharded ~shards:2 ~lookahead:(ms 10) () in
  Engine.schedule_at_unit (Exec.engine t ~group:0) (ms 100) (fun () ->
      Exec.post t ~src_group:0 ~dst_group:1 ~at:(ms 101) ~dst:1 ~w0:0 ~w1:0
        ~w2:0 ~w3:0 ~w4:0 ~w5:0 ~w6:0);
  match Exec.run t ~until:(Sim_time.of_sec 1) with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the lookahead" true
        (contains msg "lookahead")
  | () -> Alcotest.fail "a post inside the open window must raise"

(* {2 Engine-level window mechanics} *)

let test_window_rounds () =
  (* Two shards exchanging pings: rounds advance, clocks align at the
     horizon, and events land exactly where the oracle puts them. *)
  let lookahead = ms 10 in
  let t = Exec.sharded ~shards:2 ~lookahead () in
  let log = ref [] in
  Exec.set_handler t (fun ~dst ~w0 ~w1:_ ~w2:_ ~w3:_ ~w4:_ ~w5:_ ~w6:_ ->
      log := (dst, w0) :: !log);
  (* Cross-group ping every 25 ms, both directions. *)
  for i = 0 to 9 do
    let at = Sim_time.add (ms 25) (Sim_time.scale (ms 25) (float_of_int i)) in
    Exec.post t ~src_group:0 ~dst_group:1 ~at ~dst:1 ~w0:i ~w1:0 ~w2:0 ~w3:0
      ~w4:0 ~w5:0 ~w6:0;
    Exec.post t ~src_group:1 ~dst_group:0 ~at ~dst:0 ~w0:(100 + i) ~w1:0
      ~w2:0 ~w3:0 ~w4:0 ~w5:0 ~w6:0
  done;
  Exec.run t ~until:(Sim_time.of_sec 1);
  Alcotest.(check int) "all pings delivered" 20 (List.length !log);
  Alcotest.(check bool) "windows advanced" true (Exec.windows t > 0);
  for group = 0 to 1 do
    Alcotest.(check int) "clock at horizon" (Sim_time.to_ns (Sim_time.of_sec 1))
      (Sim_time.to_ns (Engine.now (Exec.engine t ~group)))
  done

let test_single_queue_contract () =
  (* The single queue is one shard run straight through: no windows, no
     barrier phases, no stats.  A one-shard windowed run of the same
     posts pays for its windows and must deliver the same sequence. *)
  let run exec =
    let engine = Exec.engine exec ~group:0 in
    let log = ref [] in
    Exec.set_handler exec (fun ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 ->
        let now = Engine.now engine in
        log := (Sim_time.to_ns now, dst, [ w0; w1; w2; w3; w4; w5; w6 ]) :: !log;
        (* Re-entrant reply: reuses the record this delivery released. *)
        if w0 < 3 then
          Exec.post exec ~src_group:dst ~dst_group:(dst + 1)
            ~at:(Sim_time.add now (ms 7)) ~dst:(dst + 1) ~w0:(w0 + 1) ~w1
            ~w2:(w2 * 3) ~w3 ~w4 ~w5 ~w6:(w6 - 1));
    for i = 0 to 9 do
      Exec.post exec ~src_group:(i mod 3) ~dst_group:((i + 1) mod 3)
        ~at:(ms (5 * i)) ~dst:i ~w0:(i mod 4) ~w1:i ~w2:(i + 1) ~w3:(-i)
        ~w4:(i * i) ~w5:max_int ~w6:i
    done;
    let profile = Profile.create () in
    Profile.with_default profile (fun () ->
        Exec.run exec ~until:(Sim_time.of_sec 1));
    (List.rev !log, List.map (fun p -> p.Profile.name) (Profile.phases profile))
  in
  let single = Exec.single () in
  let s_log, s_phases = run single in
  Alcotest.(check int) "single: shards" 1 (Exec.shards single);
  Alcotest.(check int) "single: windows" 0 (Exec.windows single);
  Alcotest.(check bool) "single: no stats" true (Exec.stats single = None);
  Alcotest.(check bool) "single: not sharded" false (Exec.is_sharded single);
  Alcotest.(check (list string)) "single: no sharded.* phase" []
    (List.filter (String.starts_with ~prefix:"sharded.") s_phases);
  let one = Exec.sharded ~shards:1 ~lookahead:(ms 5) () in
  let o_log, o_phases = run one in
  Alcotest.(check bool) "K=1: windows run" true (Exec.windows one > 0);
  Alcotest.(check bool) "K=1: drain phase" true
    (List.mem "sharded.drain" o_phases);
  Alcotest.(check bool) "K=1: window phase" true
    (List.mem "sharded.window" o_phases);
  (match Exec.stats one with
  | Some st ->
      Alcotest.(check int) "K=1: stats count every event"
        (Exec.events_processed one)
        (Psn_obs.Shard_stats.total_events st)
  | None -> Alcotest.fail "K=1 windowed run must keep stats");
  Alcotest.(check bool) "deliveries happened" true (List.length s_log > 10);
  Alcotest.(check (list (triple int int (list int))))
    "same (time, dst, lanes) sequence" s_log o_log

(* Run [f] with [PSN_DOMAINS] set to [v], restoring the caller's value
   (or the empty string, which the pool reads as unset) afterwards. *)
let with_psn_domains v f =
  let prev = Sys.getenv_opt "PSN_DOMAINS" in
  Unix.putenv "PSN_DOMAINS" v;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PSN_DOMAINS" (Option.value prev ~default:""))
    f

let test_psn_domains_env () =
  with_psn_domains "3" (fun () ->
      Alcotest.(check int) "PSN_DOMAINS pins default_domains" 3
        (Parallel.default_domains ()));
  with_psn_domains "not-a-number" (fun () ->
      Alcotest.(check bool) "garbage ignored" true
        (Parallel.default_domains () >= 1))

(* Nothing in a run crosses domains: with the pool sized for four
   domains, every delivery and every scheduled closure of a K = 4 run
   executes on the caller's domain.  Each closure sleeps a little, so
   pool workers would wake and take shards if windows were handed to
   them. *)
let test_windows_run_inline () =
  with_psn_domains "4" @@ fun () ->
  let me = Domain.self () in
  let here = Atomic.make 0 and away = Atomic.make 0 in
  let note () =
    Atomic.incr (if Domain.self () = me then here else away);
    Unix.sleepf 0.0002
  in
  let t = Exec.sharded ~shards:4 ~lookahead:(ms 10) () in
  Exec.set_handler t (fun ~dst:_ ~w0:_ ~w1:_ ~w2:_ ~w3:_ ~w4:_ ~w5:_ ~w6:_ ->
      note ());
  for g = 0 to 3 do
    let engine = Exec.engine t ~group:g in
    for i = 0 to 9 do
      let at = ms ((20 * i) + g) in
      ignore (Engine.schedule_at engine at note);
      Exec.post t ~src_group:g ~dst_group:((g + 1) mod 4)
        ~at:(Sim_time.add at (ms 15)) ~dst:((g + 1) mod 4) ~w0:i ~w1:0 ~w2:0
        ~w3:0 ~w4:0 ~w5:0 ~w6:0
    done
  done;
  Exec.run t ~until:(Sim_time.of_sec 1);
  Alcotest.(check int) "every closure and delivery ran" 80 (Atomic.get here);
  Alcotest.(check int) "none ran on another domain" 0 (Atomic.get away)

(* {2 Metrics merge} *)

let test_merge_snapshots () =
  let r1 = Metrics.create () and r2 = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter r1 "c.shared");
  Metrics.incr ~by:4 (Metrics.counter r2 "c.shared");
  Metrics.incr ~by:7 (Metrics.counter r2 "c.only2");
  let h1 = Metrics.histogram r1 ~lo:0.0 ~hi:10.0 ~bins:5 "h" in
  let h2 = Metrics.histogram r2 ~lo:0.0 ~hi:10.0 ~bins:5 "h" in
  Metrics.observe h1 1.0;
  Metrics.observe h2 1.0;
  Metrics.observe h2 99.0;
  let merged = Metrics.merge_snapshots [ Metrics.snapshot r1; Metrics.snapshot r2 ] in
  Alcotest.(check int) "counters sum" 7 (Metrics.get_counter merged "c.shared");
  Alcotest.(check int) "singleton passes through" 7
    (Metrics.get_counter merged "c.only2");
  (match Metrics.find merged "h" with
  | Some (Metrics.Histogram { counts; overflow; _ }) ->
      Alcotest.(check int) "bins sum" 2 (Array.fold_left ( + ) 0 counts);
      Alcotest.(check int) "overflow sums" 1 overflow
  | _ -> Alcotest.fail "histogram missing from merge");
  (* Kind mismatch must raise, not silently coerce. *)
  let r3 = Metrics.create () in
  Metrics.set (Metrics.gauge r3 "c.shared") 1.0;
  match Metrics.merge_snapshots [ Metrics.snapshot r1; Metrics.snapshot r3 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise"

(* {2 Streaming frontier detector}

   The online Possibly/Definitely path: substrate invariance of the
   whole observable result (verdicts, edges, occupancy evidence, merged
   trace bytes), the streaming-vs-packed oracle on the exact stamps the
   walk consumed, and online-tap == post-hoc analysis bytes. *)

module Streaming_detector = Psn_detection.Streaming_detector
module Lattice = Psn_lattice.Lattice
module Modal = Psn_lattice.Modal
module Streaming = Psn_lattice.Streaming
module Analyze = Psn_obs.Analyze

let stream_cfg =
  {
    Sharded.stream_default with
    s_detect = { Sharded.stream_default.s_detect with delay = delay_small };
  }

let stream_lookahead = Delay_model.min_delay delay_small

let test_stream_differential =
  qtest ~count:6 "stream: verdicts + edges + merged trace identical"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      substrate_invariant ~seed:(Int64.of_int seed) ~groups:2
        ~lookahead:stream_lookahead (fun exec sinks ->
          let r, det = Sharded.stream ~cfg:stream_cfg ~sinks exec in
          let listed = List.length (Streaming_detector.updates det) in
          if r.Sharded.sr_updates <> listed then
            QCheck.Test.fail_reportf "sr_updates %d, but %d updates listed"
              r.Sharded.sr_updates listed;
          r))

(* The non-negotiable oracle: replay the exact stamp prefix the walk
   consumed (via the [on_observe] tap) through the packed post-hoc
   engines and compare verdicts and committed-cut counts verbatim. *)
let test_stream_matches_packed =
  qtest ~count:6 "stream = packed post-hoc on the consumed prefix"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let n = stream_cfg.Sharded.s_monitors in
      let captured = Array.make n [] in
      let exec = Exec.single ~seed:(Int64.of_int seed) () in
      let r, det =
        Sharded.stream ~cfg:stream_cfg
          ~on_observe:(fun ~pid ~stamp ->
            captured.(pid) <- Array.copy stamp :: captured.(pid))
          exec
      in
      let stamps =
        Array.map (fun l -> Array.of_list (List.rev l)) captured
      in
      let writes =
        Array.init n (fun i ->
            Streaming_detector.updates det
            |> List.filter (fun (u : Psn_detection.Observation.update) ->
                   u.src = i)
            |> List.sort (fun (a : Psn_detection.Observation.update) b ->
                   Stdlib.compare a.seq b.seq)
            |> List.map (fun (u : Psn_detection.Observation.update) ->
                   (u.var, u.value))
            |> Array.of_list)
      in
      (* Lossless run: everything emitted was fed, except updates sensed
         within the maximum delay of the horizon, which may still be in
         flight when the run stops. *)
      let settled =
        let dc = stream_cfg.Sharded.s_detect in
        Sim_time.sub dc.horizon (Option.get (Delay_model.delta dc.delay))
      in
      Array.iteri
        (fun i evs ->
          let fed = Array.length evs and emitted = Array.length writes.(i) in
          let must =
            Streaming_detector.updates det
            |> List.filter (fun (u : Psn_detection.Observation.update) ->
                   u.src = i && Sim_time.( < ) u.sense_time settled)
            |> List.length
          in
          if fed < must || fed > emitted then
            QCheck.Test.fail_reportf
              "pid %d fed %d of %d updates (%d sensed before %a)" i fed
              emitted must Sim_time.pp settled)
        stamps;
      let holds =
        Modal.holds_of_expr ~init:[] ~updates:writes
          (Sharded.stream_predicate stream_cfg)
      in
      let count_ok =
        match (r.Sharded.sr_committed, Lattice.count_consistent stamps) with
        | Lattice.Exact a, Lattice.Exact b -> a = b
        | _ -> false
      in
      let ok =
        count_ok
        && r.Sharded.sr_possibly = Modal.possibly stamps ~holds
        && r.Sharded.sr_definitely = Modal.definitely stamps ~holds
      in
      if not ok then
        QCheck.Test.fail_reportf
          "streaming diverged from packed: committed %s, possibly %s/%s"
          (if count_ok then "equal" else "DIFFERS")
          (match r.Sharded.sr_possibly with
          | Some true -> "T" | Some false -> "F" | None -> "?")
          (match Modal.possibly stamps ~holds with
          | Some true -> "T" | Some false -> "F" | None -> "?");
      ok)

(* Online analysis (sink tap) must be byte-identical to post-hoc
   analysis of the retained trace — now including the streaming-lattice
   occupancy section fed by [Lattice_commit] records. *)
let test_stream_tap_equals_retained () =
  let seed = 11L in
  let cfg =
    {
      stream_cfg with
      Sharded.s_detect = { stream_cfg.Sharded.s_detect with groups = 1 };
    }
  in
  let posthoc =
    let sinks = [| Trace.create () |] in
    let exec = Exec.single ~seed () in
    let _r = Sharded.stream ~cfg ~sinks exec in
    let az = Analyze.create () in
    Analyze.feed_sink az sinks.(0);
    az
  in
  let online =
    let sink = Trace.create ~retain:false () in
    let az = Analyze.create () in
    Trace.set_tap sink (Some (Analyze.feed az));
    let exec = Exec.single ~seed () in
    let _r = Sharded.stream ~cfg ~sinks:[| sink |] exec in
    Alcotest.(check int) "online sink retained nothing" 0 (Trace.length sink);
    az
  in
  Alcotest.(check bool) "lattice commits observed" true
    (Analyze.lattice_commits posthoc > 0);
  Alcotest.(check bool) "peak occupancy observed" true
    (Analyze.peak_live_cuts posthoc > 0);
  Alcotest.(check string) "render byte-identical" (Analyze.render posthoc)
    (Analyze.render online);
  Alcotest.(check string) "json byte-identical" (Analyze.to_json posthoc)
    (Analyze.to_json online)

(* {2 Hold-back front end}

   Both Exec detectors share their configuration and emit checks; each
   must reject the same inputs itself, with a message naming it. *)

let test_holdback_checks () =
  let predicate = Expr.(var ~name:"v" ~loc:0 >=? int 0) in
  let sharded ~n ~groups ~group_of ~hold ~flush_period =
    let cfg =
      { Sharded_detector.n; groups; group_of; eps = ms 1;
        hold; flush_period; causal_stamps = false }
    in
    Sharded_detector.emit
      (Sharded_detector.create (Exec.single ()) ~cfg ~delay:delay_small
         ~predicate ())
  in
  let streaming ~n ~groups ~group_of ~hold ~flush_period =
    let cfg =
      { Streaming_detector.n; groups; group_of; eps = ms 1;
        hold; flush_period; cap = 1_000 }
    in
    Streaming_detector.emit
      (Streaming_detector.create (Exec.single ()) ~cfg ~delay:delay_small
         ~predicate ())
  in
  (* Each case gets a constructor [make ~n ~groups ~group_of ~hold
     ~flush_period] that returns the detector's [emit]. *)
  let build make ~n ~groups ~group_of ~flush_period =
    let _emit = make ~n ~groups ~group_of ~hold:(ms 20) ~flush_period in
    ()
  in
  let zero _ = 0 in
  let emit_ok make =
    make ~n:2 ~groups:1 ~group_of:zero ~hold:(ms 20) ~flush_period:(ms 10)
  in
  let cases =
    [
      ("n = 0", build ~n:0 ~groups:1 ~group_of:zero ~flush_period:(ms 10));
      ("n < 0", build ~n:(-1) ~groups:1 ~group_of:zero ~flush_period:(ms 10));
      ("groups = 0", build ~n:2 ~groups:0 ~group_of:zero ~flush_period:(ms 10));
      ( "flush_period = 0",
        build ~n:2 ~groups:1 ~group_of:zero ~flush_period:Sim_time.zero );
      ( "hold < 0",
        fun make ->
          let _emit =
            make ~n:2 ~groups:1 ~group_of:zero
              ~hold:(Sim_time.sub Sim_time.zero (ms 1)) ~flush_period:(ms 10)
          in
          () );
      ( "group_of past groups",
        build ~n:4 ~groups:2 ~group_of:Fun.id ~flush_period:(ms 10) );
      ( "group_of < 0",
        build ~n:2 ~groups:1 ~group_of:(fun _ -> -1) ~flush_period:(ms 10) );
      ("src = n", fun make -> emit_ok make ~src:2 ~var:"v" ~value:0);
      ("src < 0", fun make -> emit_ok make ~src:(-1) ~var:"v" ~value:0);
      ( "fifth variable on one process",
        fun make ->
          let emit = emit_ok make in
          List.iter
            (fun var -> emit ~src:0 ~var ~value:0)
            [ "a"; "b"; "c"; "d" ];
          emit ~src:0 ~var:"e" ~value:0 );
    ]
  in
  List.iter
    (fun (detector, d) ->
      List.iter
        (fun (case, f) ->
          match f d with
          | exception Invalid_argument msg
            when String.starts_with ~prefix:(detector ^ ".") msg ->
              ()
          | exception Invalid_argument msg ->
              Alcotest.failf "%s, %s: raised by another module: %s" detector
                case msg
          | () ->
              Alcotest.failf "%s, %s: expected Invalid_argument" detector case)
        cases)
    [ ("Sharded_detector", sharded); ("Streaming_detector", streaming) ]

(* Flush-schedule oracle: drive [Holdback] directly from random sense
   events and check every flush against its contract.  An arrival
   received at [recv] is applied at the first grid point
   [k * flush_period] (k >= 1) at or after [recv + hold] when that point
   is within the horizon, else only by [flush_all]; no flush is empty,
   and the engine runs nothing but sense events, deliveries and
   non-empty flushes. *)

module Holdback = Psn_detection.Holdback
module Pending_arena = Psn_detection.Pending_arena

type flush_case = {
  f_seed : int;
  f_shards : int;
  f_n : int;
  f_groups : int;
  f_hold_ms : int;
  f_period_ms : int;
  f_dmin_ms : int;
  f_dmax_ms : int;
  f_horizon_ms : int;
  f_senses : int;          (* per source *)
  f_whole_ms : bool;       (* sense on whole milliseconds *)
}

let flush_case =
  let open QCheck.Gen in
  let gen =
    let* f_seed = int_bound 10_000 in
    let* f_shards = oneofl [ 1; 2 ] in
    let* f_n = int_range 1 5 in
    let* f_groups = int_range 1 (min f_n 3) in
    let* f_hold_ms = int_range 1 300 in
    let* f_period_ms = int_range 1 120 in
    let* f_dmin_ms = int_range 1 40 in
    let* span = oneof [ return 0; int_range 0 80 ] in
    let* f_horizon_ms = int_range 100 3_000 in
    let* f_senses = int_range 0 30 in
    let+ f_whole_ms = bool in
    {
      f_seed; f_shards; f_n; f_groups; f_hold_ms; f_period_ms; f_dmin_ms;
      f_dmax_ms = f_dmin_ms + span; f_horizon_ms; f_senses; f_whole_ms;
    }
  in
  QCheck.make gen ~print:(fun c ->
      Printf.sprintf
        "seed %d, K = %d, n = %d, groups %d, hold %d ms, period %d ms, \
         delay %d-%d ms, horizon %d ms, %d senses per source%s"
        c.f_seed c.f_shards c.f_n c.f_groups c.f_hold_ms c.f_period_ms
        c.f_dmin_ms c.f_dmax_ms c.f_horizon_ms c.f_senses
        (if c.f_whole_ms then ", whole ms" else ""))

let test_flush_schedule =
  qtest ~count:60 "flushes follow arrivals on the grid, never empty"
    flush_case (fun c ->
      let seed = Int64.of_int c.f_seed in
      let exec =
        if c.f_shards = 1 then Exec.single ~seed ()
        else Exec.sharded ~seed ~shards:c.f_shards ~lookahead:(ms c.f_dmin_ms) ()
      in
      let group_of pid = pid * c.f_groups / c.f_n in
      let hb =
        Holdback.create exec ~who:"Flush_test" ~label:"flush_test"
          ~updates_metric:"flush_test.updates" ~n:c.f_n ~groups:c.f_groups
          ~group_of ~eps:(ms 1) ~hold:(ms c.f_hold_ms)
          ~flush_period:(ms c.f_period_ms)
          ~delay:(Delay_model.bounded_uniform ~min:(ms c.f_dmin_ms)
                    ~max:(ms c.f_dmax_ms))
      in
      let checker = Exec.engine exec ~group:0 in
      (* Written by group 0's events only, except [senses], whose cells
         are each written by one group's events. *)
      let senses = Array.make c.f_groups 0 in
      let arrivals = ref [] and batches = ref [] in
      Holdback.on_arrival hb (fun ~src ~seq ~vh:_ ->
          arrivals := (src, seq, Sim_time.to_ns (Engine.now checker)) :: !arrivals);
      let pend = Holdback.pending hb in
      let batch ~now m =
        ( Sim_time.to_ns now,
          List.init m (fun i ->
              ( Pending_arena.stamp pend i,
                Pending_arena.src pend i,
                Pending_arena.seq pend i )) )
      in
      Holdback.on_flush hb (fun ~now m -> batches := batch ~now m :: !batches);
      let tick = Trace.Clock_tick { clock = "physical" } in
      for src = 0 to c.f_n - 1 do
        let g = group_of src in
        let rng = Rng.create ~seed:(Int64.of_int ((c.f_seed * 8) + src)) () in
        for _ = 1 to c.f_senses do
          let at =
            if c.f_whole_ms then ms (Rng.int rng c.f_horizon_ms)
            else Sim_time.of_us (Rng.int rng (c.f_horizon_ms * 1000))
          in
          Engine.schedule_at_unit (Exec.engine exec ~group:g) at (fun () ->
              senses.(g) <- senses.(g) + 1;
              let value = senses.(g) in
              let lane = Holdback.admit hb ~src ~var:"v" ~value in
              Holdback.send hb ~src ~lane ~value ~vh:(-1) ~tick)
        done
      done;
      let horizon_ns = Sim_time.to_ns (ms c.f_horizon_ms) in
      Exec.run exec ~until:(ms c.f_horizon_ms);
      let during = List.rev !batches in
      let final = ref (0, []) in
      Holdback.flush_all hb (fun ~now m -> final := batch ~now m);
      let applied = Hashtbl.create 64 in
      List.iter
        (fun (now, b) ->
          List.iter (fun (_, src, seq) -> Hashtbl.add applied (src, seq) (Some now)) b)
        during;
      List.iter (fun (_, src, seq) -> Hashtbl.add applied (src, seq) None) (snd !final);
      let fail fmt = QCheck.Test.fail_reportf fmt in
      (* (i) No flush during the run is empty. *)
      List.iter
        (fun (now, b) -> if b = [] then fail "empty flush at %d ns" now)
        during;
      (* (ii) Each arrival is applied once, at its grid point. *)
      let p = Sim_time.to_ns (ms c.f_period_ms) in
      let hold = Sim_time.to_ns (ms c.f_hold_ms) in
      if Hashtbl.length applied <> List.length !arrivals then
        fail "%d arrivals, %d applied" (List.length !arrivals)
          (Hashtbl.length applied);
      let pp_at = function
        | Some t -> Printf.sprintf "at %d ns" t
        | None -> "by flush_all"
      in
      List.iter
        (fun (src, seq, recv) ->
          let grid = max p ((recv + hold + p - 1) / p * p) in
          let want = if grid <= horizon_ns then Some grid else None in
          match Hashtbl.find_all applied (src, seq) with
          | [ got ] when got = want -> ()
          | [ got ] ->
              fail "(%d, %d) received at %d ns: applied %s, expected %s" src
                seq recv (pp_at got) (pp_at want)
          | l ->
              fail "(%d, %d) received at %d ns applied %d times" src seq recv
                (List.length l))
        !arrivals;
      (* (iii) Each batch is in (stamp, src, seq) order. *)
      let rec ordered = function
        | a :: (b :: _ as rest) -> compare a b < 0 && ordered rest
        | _ -> true
      in
      List.iter
        (fun (now, b) ->
          if not (ordered b) then
            fail "batch at %d ns not in (stamp, src, seq) order" now)
        (!final :: during);
      (* (iv) The engine ran nothing else. *)
      let sensed = Array.fold_left ( + ) 0 senses in
      let batches = List.length (List.filter (fun (_, b) -> b <> []) during) in
      let expected = sensed + List.length !arrivals + batches in
      if Exec.events_processed exec <> expected then
        fail
          "%d engine events, expected %d (%d senses, %d deliveries, %d \
           batches)"
          (Exec.events_processed exec) expected sensed (List.length !arrivals)
          batches;
      true)

(* {2 Streamed memory}

   Each monitor keeps one pending sense event, so the queues hold the
   live traffic only: a few sense events, in-flight strobes and
   unicasts, and one flush.  Scheduling every sample up front queued
   thousands before the first event.  The hook runs on the checker's
   shard; at K = 2 its read of the other shard's queue length may be
   stale, and every value it can see is one the queue held. *)
let test_stream_queue_bound shards () =
  let dc = stream_cfg.Sharded.s_detect in
  let cfg =
    { stream_cfg with
      Sharded.s_detect = { dc with horizon = Sim_time.of_sec 10_000 } }
  in
  let exec =
    if shards = 1 then Exec.single ~seed:42L ()
    else Exec.sharded ~seed:42L ~shards ~lookahead:stream_lookahead ()
  in
  let peak = ref 0 in
  let on_observe ~pid:_ ~stamp:_ =
    for g = 0 to dc.groups - 1 do
      peak := max !peak (Engine.pending (Exec.engine exec ~group:g))
    done
  in
  let r, _ = Sharded.stream ~cfg ~on_observe exec in
  Alcotest.(check bool) "samples observed" true (r.Sharded.sr_observed > 1_000);
  if !peak > 64 then Alcotest.failf "%d events pending on one engine" !peak

(* The ground-truth log packs each update into two ints; [updates] must
   give back exactly what was emitted, at sense times up to 2^59 ns and
   with values at both ends of the int range. *)
let log_case =
  let open QCheck.Gen in
  let value =
    frequency
      [ (1, return min_int); (1, return max_int); (1, return 0);
        (3, small_signed_int); (3, int) ]
  in
  let at = map (fun x -> x land ((1 lsl 59) - 1)) int in
  let* n = int_range 1 4 in
  let* names = list_repeat n (int_range 1 4) in
  let emit =
    let* src = int_bound (n - 1) in
    let* var = int_bound (List.nth names src - 1) in
    let* at = oneof [ at; map (fun x -> x land 0xFFFF) int ] in
    let+ value = value in
    (src, var, at, value)
  in
  let+ emits = list_size (int_range 0 40) emit in
  (n, emits)

(* [n] sources in one group on the single queue. *)
let one_group_detector ~n exec =
  Sharded_detector.create exec
    ~cfg:
      { Sharded_detector.n; groups = 1; group_of = (fun _ -> 0); eps = ms 1;
        hold = ms 20; flush_period = ms 10; causal_stamps = false }
    ~delay:delay_small ~predicate:Expr.(var ~name:"v0" ~loc:0 >? int 0) ()

let test_log_round_trip =
  qtest ~count:100 "ground-truth log: updates round-trip to 2^59 ns"
    (QCheck.make log_case ~print:(fun (n, emits) ->
         Printf.sprintf "n = %d: %s" n
           (String.concat "; "
              (List.map
                 (fun (src, var, at, value) ->
                   Printf.sprintf "(%d, v%d, %d ns, %d)" src var at value)
                 emits))))
    (fun (n, emits) ->
      let exec = Exec.single ~seed:3L () in
      let det = one_group_detector ~n exec in
      let engine = Exec.engine exec ~group:0 in
      let seqs = Array.make n 0 and reference = ref [] in
      List.iter
        (fun (src, var, at, value) ->
          let var = Printf.sprintf "v%d" var in
          Engine.schedule_at_unit engine (Sim_time.of_ns at) (fun () ->
              reference :=
                { Psn_detection.Observation.src; var; value = Value.Int value;
                  seq = seqs.(src); sense_time = Engine.now engine }
                :: !reference;
              seqs.(src) <- seqs.(src) + 1;
              Sharded_detector.emit det ~src ~var ~value))
        emits;
      Exec.run exec ~until:(Sim_time.of_ns (1 lsl 59));
      let want =
        List.sort Psn_detection.Ground_truth.compare_updates !reference
      in
      Sharded_detector.updates det = want)

let test_sense_time_bound () =
  let exec = Exec.single () in
  let det = one_group_detector ~n:1 exec in
  let at = Sim_time.of_ns (1 lsl 60) in
  Engine.schedule_at_unit (Exec.engine exec ~group:0) at (fun () ->
      Sharded_detector.emit det ~src:0 ~var:"v0" ~value:1);
  Alcotest.check_raises "emit at 2^60 ns"
    (Invalid_argument "Sharded_detector.emit: sense time past 2^60 ns")
    (fun () -> Exec.run exec ~until:at)

let () =
  Alcotest.run "psn_sharded"
    [
      ( "differential",
        [
          test_hall_differential;
          test_banking_differential;
          test_hospital_differential;
          test_calm_differential;
          test_script_differential;
        ] );
      ( "checker backends",
        [
          test_calm_backends;
          test_relational_backends;
        ] );
      ( "lookahead",
        [
          test_min_delay_bound;
          Alcotest.test_case "zero lookahead rejected" `Quick
            test_zero_lookahead_rejected;
          Alcotest.test_case "violation at the barrier" `Quick
            test_lookahead_violation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "window rounds + clock alignment" `Quick
            test_window_rounds;
          Alcotest.test_case "single queue: one shard, no windows" `Quick
            test_single_queue_contract;
          Alcotest.test_case "PSN_DOMAINS env knob" `Quick
            test_psn_domains_env;
          Alcotest.test_case "windows run on the caller's domain" `Quick
            test_windows_run_inline;
        ] );
      ( "metrics",
        [ Alcotest.test_case "merge_snapshots" `Quick test_merge_snapshots ] );
      ( "streaming detector",
        [
          test_stream_differential;
          test_stream_matches_packed;
          Alcotest.test_case "online tap == post-hoc bytes" `Quick
            test_stream_tap_equals_retained;
          Alcotest.test_case "queues stay bounded at 10^4 s (K=1)" `Quick
            (test_stream_queue_bound 1);
          Alcotest.test_case "queues stay bounded at 10^4 s (K=2)" `Quick
            (test_stream_queue_bound 2);
        ] );
      ( "holdback",
        [
          Alcotest.test_case "both detectors reject bad config and emits"
            `Quick test_holdback_checks;
          test_flush_schedule;
          test_log_round_trip;
          Alcotest.test_case "sense time at 2^60 ns rejected" `Quick
            test_sense_time_bound;
        ] );
    ]
