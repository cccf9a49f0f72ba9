(* The five end-to-end workloads: what each runs, how it is checked, and
   what its traced pass reports per layer.

   Every workload is a closed loop: one execution at a time, each a
   whole public call (construction, run and scoring), repeated until the
   run's time budget is spent and at least [min_execs] times.  Inputs
   come only from the seed. *)

module Sharded = Psn_scenarios.Sharded
module Exec = Psn_sim.Exec
module Sim_time = Psn_sim.Sim_time
module Delay_model = Psn_sim.Delay_model
module Parallel = Psn_util.Parallel
module Experiments = Psn_experiments.Experiments
module Json = Psn_obs.Json
module D = Psn_detection
module Streaming = Psn_lattice.Streaming

let min_execs = 3

(* [psn-sim experiment | md5sum]: the rendered E-sweep tables. *)
let esweep_md5 = "285c2758d5fa2a080b74c03be256db0c"

(* {2 Inputs} *)

let hall_cfg =
  {
    Sharded.doors = 1000;
    capacity = 1000;
    visitors = 2000;
    dwell_mean = 45.0;
    detect =
      {
        Sharded.default_detect with
        groups = 8;
        flush_period = Sim_time.of_ms 250;
        horizon = Sim_time.of_sec 600;
      };
  }

(* [psn-sim detect --horizon H]: the default streamed workload. *)
let stream_cfg horizon_s =
  let d = Sharded.stream_default.s_detect in
  {
    Sharded.stream_default with
    s_detect = { d with horizon = Sim_time.of_sec horizon_s };
  }

(* An execution's set-up: [Exec] construction, and the domain-pool
   warm-up for the [Parallel.init shards] the sharded engine issues
   (spawns workers only where [Parallel.default_domains] exceeds 1). *)
let make_exec ~seed ~shards delay =
  let exec =
    if shards = 1 then Exec.single ~seed ()
    else Exec.sharded ~seed ~shards ~lookahead:(Delay_model.min_delay delay) ()
  in
  ignore (Sys.opaque_identity (Parallel.init shards Fun.id));
  exec

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))
let report_digest r = digest (Psn.Report.core r)

(* [psn-sim experiment]'s output: each entry's table, in order. *)
let render_sweep entries =
  String.concat ""
    (List.map
       (fun (e : Experiments.entry) ->
         Psn_experiments.Exp_common.render (e.run ~quick:false ()) ^ "\n")
       entries)

(* {2 Measurement} *)

let now_s () = float_of_int (Span.now_ns ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

type measured = {
  wall_s : float array;
  top_heap_mb : float;
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (* run-level checks, in order *)
  extra : (string * float * string) list;  (* name, value, unit *)
  info : (string * Json.t) list;
}

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Runs [exec] on a fresh, untimed [setup ()] until [seconds] are spent
   (and at least [min_execs] times), printing one progress line per
   execution.  Returns the wall samples, each execution's key, and the
   heap high-water mark after [min_execs] executions, a fixed count so
   that the mark does not depend on how many executions the budget
   allowed. *)
let timed_loop ~name ~seconds ~setup ~exec =
  let walls = ref [] and keys = ref [] and heap = ref 0.0 in
  let started = now_s () in
  let more () =
    let n = List.length !walls in
    n < min_execs
    || now_s () -. started +. Summary.median (Array.of_list !walls) <= seconds
  in
  while more () do
    (* Each execution starts from a collected heap: one execution's
       garbage neither slows the next nor adds to its high-water mark. *)
    Gc.full_major ();
    let env = setup () in
    let t0 = now_s () and c0 = Sys.time () in
    let key = exec env in
    let dt = now_s () -. t0 and cpu = Sys.time () -. c0 in
    walls := dt :: !walls;
    keys := key :: !keys;
    if List.length !walls = min_execs then heap := top_heap_mb ();
    Printf.printf "  %s exec %d: %.4f s (cpu %.4f s)\n%!" name (List.length !walls) dt cpu
  done;
  (Array.of_list (List.rev !walls), List.rev !keys, !heap)

let failures checks = List.length (List.filter (fun (_, ok) -> not ok) checks)

(* Each execution passes when [ok key]; run-level [checks] add one
   attempt each. *)
let measured ~walls ~heap ~keys ~ok ~checks ~extra ~info =
  let exec_failed = List.length (List.filter (fun k -> not (ok k)) keys) in
  let check_failed = failures checks in
  {
    wall_s = walls;
    top_heap_mb = heap;
    attempted = List.length keys + List.length checks;
    failed = exec_failed + check_failed;
    checks = ("executions agree", exec_failed = 0) :: checks;
    extra;
    info;
  }

let hall_sane (r : Psn.Report.t) =
  r.summary.truth_count > 0 && r.summary.tp > 0 && r.sim_events > 0

let hall exec = Sharded.hall ~cfg:hall_cfg exec
let hall_setup ~shards ~seed () = make_exec ~seed ~shards hall_cfg.detect.delay

let hall_untraced ~name ~shards ~seed ~seconds =
  let walls, keys, heap =
    timed_loop ~name ~seconds ~setup:(hall_setup ~shards ~seed)
      ~exec:(fun exec ->
        let r = hall exec in
        (report_digest r, r))
  in
  let first_digest, first = List.hd keys in
  (* K = 2 must reproduce the single-queue oracle's report exactly. *)
  let reference, checks, reference_info =
    if shards = 1 then (first_digest, [], [])
    else
      let k1, k1_s = timed (fun () -> hall (hall_setup ~shards:1 ~seed ())) in
      Printf.printf "  K = 1 reference on the same input: %.4f s\n" k1_s;
      ( report_digest k1,
        [ ("K = 1 reference report sane", hall_sane k1) ],
        [ ("k1_reference_s", Json.Float k1_s) ] )
  in
  let s = first.summary in
  measured ~walls ~heap ~keys ~checks
    ~ok:(fun (d, r) -> hall_sane r && d = reference)
    ~extra:[ ("recall", s.recall, "ratio"); ("precision", s.precision, "ratio") ]
    ~info:
      ([
        ("report_digest", Json.Str first_digest);
        ("events", Json.Int first.sim_events);
        ("truth", Json.Int s.truth_count);
        ("tp", Json.Int s.tp);
        ("fp", Json.Int s.fp);
        ("updates", Json.Int first.updates);
       ]
      @ reference_info)

let committed_count = function
  | Psn_lattice.Packed.Exact n | Psn_lattice.Packed.At_least n -> n

let stream_setup ~shards ~seed cfg () =
  make_exec ~seed ~shards cfg.Sharded.s_detect.delay

let run_stream ?on_observe ~seed ~shards cfg =
  Sharded.stream ~cfg ?on_observe (stream_setup ~shards ~seed cfg ())

(* [psn-sim detect --differential]: the packed post-hoc walk over the
   exact prefix the streaming walk consumed must agree with it. *)
let packed_differential ~seed cfg =
  let cap = Traced.capture cfg.Sharded.s_monitors in
  let r, det = run_stream ~on_observe:(Traced.record cap) ~seed ~shards:1 cfg in
  let stamps = Traced.stamps cap in
  let holds = Traced.stream_holds cfg det in
  let agree =
    r.sr_possibly = Psn_lattice.Modal.possibly stamps ~holds
    && r.sr_definitely = Psn_lattice.Modal.definitely stamps ~holds
    &&
    match (r.sr_committed, Psn_lattice.Lattice.count_consistent stamps) with
    | Exact a, Exact b -> a = b
    | _ -> true (* capped on either side: counts are lower bounds *)
  in
  (r, agree)

let stream_decided (r : Sharded.stream_result) =
  Option.is_some r.sr_possibly && Option.is_some r.sr_definitely
  && r.sr_observed > 0

let stream_untraced ~name ~shards ~horizon_s ~seed ~seconds =
  let cfg = stream_cfg horizon_s in
  let walls, keys, heap =
    timed_loop ~name ~seconds ~setup:(stream_setup ~shards ~seed cfg)
      ~exec:(fun exec -> fst (Sharded.stream ~cfg exec))
  in
  (* Every execution must equal a reference run: for K = 1 the one the
     packed oracle checks, for K = 2 a K = 1 run (verdicts, committed
     cuts, edges and counts alike). *)
  let reference, checks, reference_info =
    if shards = 1 then
      let (r, agree), diff_s = timed (fun () -> packed_differential ~seed cfg) in
      ( r,
        [ ("streaming equals packed", agree && stream_decided r) ],
        [ ("differential_s", Json.Float diff_s) ] )
    else
      let r, k1_s = timed (fun () -> fst (run_stream ~seed ~shards:1 cfg)) in
      Printf.printf "  K = 1 reference on the same input: %.4f s\n" k1_s;
      ( r,
        [ ("K = 1 reference decided", stream_decided r) ],
        [ ("k1_reference_s", Json.Float k1_s) ] )
  in
  measured ~walls ~heap ~keys ~checks
    ~ok:(fun r -> stream_decided r && r = reference)
    ~extra:[]
    ~info:
      ([
        ("events", Json.Int reference.sr_observed);
        ("committed_cuts", Json.Int (committed_count reference.sr_committed));
        ("peak_live_cuts", Json.Int reference.sr_peak_live_cuts);
        ("peak_live_events", Json.Int reference.sr_peak_live_events);
       ]
      @ reference_info)

(* The sweep's set-up: resolve the registry by id, as
   [psn-sim experiment ID ...] does, and warm the domain pool its maps
   use. *)
let sweep_setup () =
  let entries =
    List.filter_map
      (fun (e : Experiments.entry) -> Experiments.find e.id)
      Experiments.all
  in
  ignore (Sys.opaque_identity (Parallel.init (Parallel.default_domains ()) Fun.id));
  entries

let esweep_untraced ~name ~seed:_ ~seconds =
  let walls, keys, heap =
    timed_loop ~name ~seconds ~setup:sweep_setup ~exec:(fun entries ->
        Digest.to_hex (Digest.string (render_sweep entries)))
  in
  measured ~walls ~heap ~keys ~checks:[]
    ~ok:(fun md5 -> md5 = esweep_md5)
    ~extra:[]
    ~info:[ ("tables_md5", Json.Str (List.hd keys)) ]

(* {2 Traced pass} *)

(* Every per-layer metric, with its unit, in BENCHMARK.json order.  A
   workload reports 0 for a layer it does not exercise. *)
let layer_metrics =
  [
    ("ground_truth.s", "s");
    ("ground_truth.updates", "count");
    ("ground_truth.ns_per_update", "ns");
    ("metrics.score_s", "s");
    ("sharded_detector.create_s", "s");
    ("sharded_detector.emit_calls", "count");
    ("sharded_detector.emit_s", "s");
    ("sharded_detector.emit_ns_p50", "ns");
    ("sharded_detector.emit_ns_p99", "ns");
    ("sharded_detector.updates", "count");
    ("sharded_detector.occurrences", "count");
    ("sharded_detector.borderline", "count");
    ("exec.run_s", "s");
    ("exec.events", "count");
    ("exec.ns_per_event", "ns");
    ("shard_net.messages", "count");
    ("shard_net.words", "count");
    ("shard_net.dropped", "count");
    ("sharded_engine.windows", "count");
    ("sharded_engine.windows_per_event", "ratio");
    ("sharded_engine.queue_limited", "count");
    ("sharded_engine.lookahead_limited", "count");
    ("sharded_engine.par_s", "s");
    ("sharded_engine.drain_s", "s");
    ("sharded_engine.fold_s", "s");
    ("sharded_engine.other_s", "s");
    ("sharded_engine.dispatch_s", "s");
    ("sharded_engine.busy_s", "s");
    ("sharded_engine.imbalance_events", "ratio");
    ("sharded_engine.amdahl_limit", "ratio");
    ("streaming_detector.create_s", "s");
    ("streaming_detector.emit_s", "s");
    ("streaming_detector.finish_s", "s");
    ("streaming_detector.non_lattice_s", "s");
    ("lattice.replay_s", "s");
    ("lattice.observe_calls", "count");
    ("lattice.observe_ns_p50", "ns");
    ("lattice.observe_ns_p99", "ns");
    ("lattice.peak_live_cuts", "count");
    ("lattice.peak_live_events", "count");
    ("lattice.committed_cuts", "count");
  ]
  @ List.map
      (fun (e : Experiments.entry) -> ("experiments." ^ e.id ^ "_s", "s"))
      Experiments.all
  @ [ ("experiments.sequential_s", "s") ]

type ledger = {
  total_s : float;  (* the traced composition's root span *)
  untraced_s : float;  (* one untraced public call on the same input *)
  rows : Span.row list;
  stale : bool;
  notes : string list;  (* estimates and program phases, one line each *)
}

type traced = {
  ledger : ledger;
  layers : (string * float) list;
  t_checks : (string * bool) list;
  spans : Span.span array;
}

let ns_to_s ns = float_of_int ns /. 1e9

let self_s rows name =
  List.fold_left
    (fun acc (r : Span.row) -> if r.row_name = name then acc + r.self_ns else acc)
    0 rows
  |> ns_to_s

let per ns n = if n = 0 then 0.0 else float_of_int ns /. float_of_int n

(* Calls, total seconds, and p50/p99 ns of the spans called [name]. *)
let leaf_stats spans name =
  let d = Span.durations_ns spans name in
  if Array.length d = 0 then (0.0, 0.0, 0.0, 0.0)
  else
    ( float_of_int (Array.length d),
      Array.fold_left ( +. ) 0.0 d /. 1e9,
      Summary.percentile d 50.0,
      Summary.percentile d 99.0 )

let engine_layers exec =
  match Exec.stats exec with
  | None -> []
  | Some st ->
      let a = Psn_obs.Analyze.sharded st in
      [
        ("sharded_engine.windows", float_of_int a.sr_windows);
        ( "sharded_engine.windows_per_event",
          per a.sr_windows a.sr_events );
        ("sharded_engine.queue_limited", float_of_int a.sr_limit_queue);
        ("sharded_engine.lookahead_limited", float_of_int a.sr_limit_lookahead);
        ("sharded_engine.par_s", ns_to_s a.sr_par_ns);
        ("sharded_engine.drain_s", ns_to_s a.sr_drain_ns);
        ("sharded_engine.fold_s", ns_to_s a.sr_fold_ns);
        ("sharded_engine.other_s", ns_to_s a.sr_other_ns);
        ("sharded_engine.dispatch_s", ns_to_s a.sr_dispatch_ns);
        ("sharded_engine.busy_s", ns_to_s a.sr_busy_ns);
        ("sharded_engine.imbalance_events", a.sr_imbalance_events);
        ("sharded_engine.amdahl_limit", a.sr_amdahl_limit);
      ]

(* The program's own Profile phases (detector.setup, sharded.window,
   sharded.drain), from one more untraced call with a Profile default
   installed.  They stay out of the span-traced call: Profile reads the
   GC counters around every window, which on stream_k2's million
   windows costs several times the run itself. *)
let profiled_notes call =
  let prof = Psn_obs.Profile.create () in
  let (), total_s =
    timed (fun () -> ignore (Sys.opaque_identity (Psn_obs.Profile.with_default prof call)))
  in
  Printf.sprintf "program phases, from a separate call with a Profile default (%.6f s):"
    total_s
  :: List.map
       (fun (p : Psn_obs.Profile.phase) ->
         Printf.sprintf "  %s: %d x, %.6f s" p.name p.count (ns_to_s p.wall_ns))
       (Psn_obs.Profile.phases prof)

let root_rows spans name =
  match Span.find spans name with
  | Some root -> (ns_to_s (Span.duration root), Span.rows spans ~root)
  | None -> invalid_arg ("traced pass: no root span " ^ name)

let hall_traced ~shards ~seed =
  let plain, untraced_s =
    timed (fun () -> hall (hall_setup ~shards ~seed ()))
  in
  let sp = Span.create () in
  let exec = hall_setup ~shards ~seed () in
  let r, _det = Traced.hall sp hall_cfg exec in
  let spans = Span.spans sp in
  let total_s, rows = root_rows spans "hall" in
  let gt_s = self_s rows "ground_truth.intervals" in
  let run_s = self_s rows "exec.run" in
  let emit_n, emit_s, emit_p50, emit_p99 =
    leaf_stats spans "sharded_detector.emit"
  in
  let layers =
    [
      ("ground_truth.s", gt_s);
      ("ground_truth.updates", float_of_int r.updates);
      ("ground_truth.ns_per_update", gt_s *. 1e9 /. float_of_int r.updates);
      ("metrics.score_s", self_s rows "metrics.score");
      ("sharded_detector.create_s", self_s rows "sharded_detector.create");
      ("sharded_detector.emit_calls", emit_n);
      ("sharded_detector.emit_s", emit_s);
      ("sharded_detector.emit_ns_p50", emit_p50);
      ("sharded_detector.emit_ns_p99", emit_p99);
      ("sharded_detector.updates", float_of_int r.updates);
      ("sharded_detector.occurrences", float_of_int (List.length r.occurrences));
      ("sharded_detector.borderline", float_of_int r.summary.borderline);
      ("exec.run_s", run_s);
      ("exec.events", float_of_int r.sim_events);
      ("exec.ns_per_event", run_s *. 1e9 /. float_of_int r.sim_events);
      ("shard_net.messages", float_of_int r.messages);
      ("shard_net.words", float_of_int r.words);
      ("shard_net.dropped", float_of_int r.dropped);
    ]
    @ engine_layers exec
  in
  let checks = [ ("untraced report sane", hall_sane plain); ("traced report sane", hall_sane r) ] in
  {
    ledger =
      {
        total_s;
        untraced_s;
        rows;
        stale = report_digest r <> report_digest plain;
        notes =
          profiled_notes (fun () -> hall (hall_setup ~shards ~seed ()));
      };
    layers;
    t_checks = checks;
    spans;
  }

let stream_traced ~shards ~horizon_s ~seed =
  let cfg = stream_cfg horizon_s in
  let plain, untraced_s = timed (fun () -> fst (run_stream ~seed ~shards cfg)) in
  let sp = Span.create () in
  let exec = stream_setup ~shards ~seed cfg () in
  let cap = Traced.capture cfg.s_monitors in
  let r, det = Traced.stream sp ~on_observe:(Traced.record cap) cfg exec in
  let s = Traced.replay sp ~cap:cfg.s_cap ~holds:(Traced.stream_holds cfg det) cap in
  let spans = Span.spans sp in
  let total_s, rows = root_rows spans "stream" in
  let run_s = self_s rows "exec.run" in
  let replay_s =
    match Span.find spans "lattice.replay" with
    | Some sp -> ns_to_s (Span.duration sp)
    | None -> 0.0
  in
  let _, emit_s, _, _ = leaf_stats spans "streaming_detector.emit" in
  let obs_n, _, obs_p50, obs_p99 = leaf_stats spans "lattice.observe" in
  let events = Exec.events_processed exec in
  let replay_agrees =
    Streaming.possibly s = r.sr_possibly
    && Streaming.definitely s = r.sr_definitely
    && Streaming.committed_cuts s = r.sr_committed
  in
  let layers =
    [
      ("exec.run_s", run_s);
      ("exec.events", float_of_int events);
      ("exec.ns_per_event", run_s *. 1e9 /. float_of_int events);
      ("shard_net.messages", float_of_int r.sr_messages);
      ("shard_net.words", float_of_int (Psn_network.Shard_net.words (D.Streaming_detector.net det)));
      ("shard_net.dropped", float_of_int r.sr_dropped);
      ("streaming_detector.create_s", self_s rows "streaming_detector.create");
      ("streaming_detector.emit_s", emit_s);
      ("streaming_detector.finish_s", self_s rows "streaming_detector.finish");
      ("streaming_detector.non_lattice_s", run_s -. replay_s);
      ("lattice.replay_s", replay_s);
      ("lattice.observe_calls", obs_n);
      ("lattice.observe_ns_p50", obs_p50);
      ("lattice.observe_ns_p99", obs_p99);
      ("lattice.peak_live_cuts", float_of_int r.sr_peak_live_cuts);
      ("lattice.peak_live_events", float_of_int r.sr_peak_live_events);
      ("lattice.committed_cuts", float_of_int (committed_count r.sr_committed));
    ]
    @ engine_layers exec
  in
  let checks =
    [
      ("untraced verdicts decided", stream_decided plain);
      ("replay verdicts equal the run's", replay_agrees);
    ]
  in
  {
    ledger =
      {
        total_s;
        untraced_s;
        rows;
        stale = r <> plain;
        notes =
          Printf.sprintf
            "estimate: lattice.replay %.6f s of exec.run %.6f s; the rest, %.6f s, is streaming_detector.non_lattice_s"
            replay_s run_s (run_s -. replay_s)
          :: profiled_notes (fun () -> run_stream ~seed ~shards cfg);
      };
    layers;
    t_checks = checks;
    spans;
  }

let esweep_traced ~seed:_ =
  let md5 s = Digest.to_hex (Digest.string s) in
  let entries = sweep_setup () in
  let plain, untraced_s = timed (fun () -> render_sweep entries) in
  let sp = Span.create () in
  let traced =
    Span.with_span sp "esweep" (fun () ->
        String.concat ""
          (List.map
             (fun (e : Experiments.entry) ->
               Span.with_span sp ("experiments." ^ e.id) (fun () ->
                   Psn_experiments.Exp_common.render (e.run ~quick:false ()) ^ "\n"))
             entries))
  in
  let sequential =
    Parallel.set_sequential true;
    Fun.protect
      ~finally:(fun () -> Parallel.set_sequential false)
      (fun () ->
        Span.with_span sp "experiments.sequential" (fun () -> render_sweep entries))
  in
  let spans = Span.spans sp in
  let total_s, rows = root_rows spans "esweep" in
  let seq_s =
    match Span.find spans "experiments.sequential" with
    | Some s -> ns_to_s (Span.duration s)
    | None -> 0.0
  in
  let layers =
    List.map
      (fun (e : Experiments.entry) ->
        ("experiments." ^ e.id ^ "_s", self_s rows ("experiments." ^ e.id)))
      Experiments.all
    @ [ ("experiments.sequential_s", seq_s) ]
  in
  let checks =
    [
      ("untraced tables md5", md5 plain = esweep_md5);
      ("traced tables md5", md5 traced = esweep_md5);
      ("sequential tables md5", md5 sequential = esweep_md5);
    ]
  in
  {
    ledger =
      {
        total_s;
        untraced_s;
        rows;
        stale = traced <> plain;
        notes =
          [
            Printf.sprintf
              "experiments.sequential_s %.6f s (Parallel.set_sequential true) against the untraced sweep %.6f s"
              seq_s untraced_s;
          ];
      };
    layers;
    t_checks = checks;
    spans;
  }

(* {2 Registry} *)

(* Why each workload was chosen is recorded in README.md and
   BENCHMARK.json. *)
type t = {
  name : string;
  set_up : seed:int64 -> unit;  (* what precedes one execution *)
  untraced : seed:int64 -> seconds:float -> measured;
  traced : seed:int64 -> traced;
}

let hall_workload name ~shards =
  {
    name;
    set_up = (fun ~seed -> ignore (Sys.opaque_identity (hall_setup ~shards ~seed ())));
    untraced = hall_untraced ~name ~shards;
    traced = hall_traced ~shards;
  }

let stream_workload name ~shards ~horizon_s =
  {
    name;
    set_up =
      (fun ~seed ->
        ignore (Sys.opaque_identity (stream_setup ~shards ~seed (stream_cfg horizon_s) ())));
    untraced = stream_untraced ~name ~shards ~horizon_s;
    traced = stream_traced ~shards ~horizon_s;
  }

let all =
  [
    hall_workload "hall_1k" ~shards:1;
    hall_workload "hall_1k_k2" ~shards:2;
    stream_workload "stream_1m" ~shards:1 ~horizon_s:1_000_000;
    stream_workload "stream_k2" ~shards:2 ~horizon_s:25_000;
    {
      name = "esweep";
      set_up = (fun ~seed:_ -> ignore (Sys.opaque_identity (sweep_setup ())));
      untraced = esweep_untraced ~name:"esweep";
      traced = esweep_traced;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
