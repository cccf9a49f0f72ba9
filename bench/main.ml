(* Benchmark harness.

   Part 1 (E10): Bechamel microbenchmarks of every clock protocol's hot
   operations — one Test.make per operation — plus the detection fast
   path and the lattice counter.

   Part 2: the claim-reproduction experiment tables E1–E12 (quick
   profiles), printed through the same code the CLI uses, so

       dune exec bench/main.exe

   regenerates every table this reproduction reports. *)

open Bechamel
open Toolkit

module Sim_time = Psn_sim.Sim_time

let n = 16

(* --- E10 subjects ------------------------------------------------------ *)

let lamport_tick =
  let c = Psn_clocks.Lamport.create ~me:0 in
  Test.make ~name:"lamport.tick" (Staged.stage @@ fun () ->
      ignore (Psn_clocks.Lamport.tick c))

let lamport_receive =
  let c = Psn_clocks.Lamport.create ~me:0 in
  Test.make ~name:"lamport.receive" (Staged.stage @@ fun () ->
      ignore (Psn_clocks.Lamport.receive c 42))

let vector_tick =
  let c = Psn_clocks.Vector_clock.create ~n ~me:0 in
  Test.make ~name:"vector.tick(n=16)" (Staged.stage @@ fun () ->
      ignore (Psn_clocks.Vector_clock.tick c))

(* The production receive path since the stamp plane landed: piggybacked
   handle in, in-place merge + tick, no snapshot (the linearizer discards
   it).  [vector.receive_copy] below keeps the legacy copy-stamp API
   under the bench so the arena's win stays visible. *)
let vector_receive =
  let plane = Psn_clocks.Stamp_plane.create ~n () in
  let c = Psn_clocks.Vector_clock.create ~n ~me:0 in
  let h = Psn_clocks.Stamp_plane.of_array plane (Array.make n 5) in
  Test.make ~name:"vector.receive(n=16)" (Staged.stage @@ fun () ->
      Psn_clocks.Vector_clock.receive_from plane c h)

let vector_receive_copy =
  let c = Psn_clocks.Vector_clock.create ~n ~me:0 in
  let stamp = Array.make n 5 in
  Test.make ~name:"vector.receive_copy(n=16)" (Staged.stage @@ fun () ->
      ignore (Psn_clocks.Vector_clock.receive c stamp))

(* VC3 with the post-receive snapshot allocated in the plane; the arena
   is recycled every 128 stamps (a run-sized window that stays
   cache-resident) so the reset cost is amortized into the figure
   instead of growing the backing array without bound. *)
let vector_receive_into =
  let plane = Psn_clocks.Stamp_plane.create ~n () in
  let c = Psn_clocks.Vector_clock.create ~n ~me:0 in
  let msg = Array.make n 5 in
  let h = ref (Psn_clocks.Stamp_plane.of_array plane msg) in
  let left = ref 128 in
  Test.make ~name:"vector.receive_into(n=16)" (Staged.stage @@ fun () ->
      decr left;
      if !left = 0 then begin
        left := 128;
        Psn_clocks.Stamp_plane.reset plane;
        h := Psn_clocks.Stamp_plane.of_array plane msg
      end;
      ignore (Psn_clocks.Vector_clock.receive_into plane c !h))

let strobe_scalar_tick =
  let c = Psn_clocks.Strobe_scalar.create ~me:0 in
  Test.make ~name:"strobe_scalar.tick" (Staged.stage @@ fun () ->
      ignore (Psn_clocks.Strobe_scalar.tick_and_strobe c))

let strobe_vector_tick =
  let c = Psn_clocks.Strobe_vector.create ~n ~me:0 in
  Test.make ~name:"strobe_vector.tick(n=16)" (Staged.stage @@ fun () ->
      ignore (Psn_clocks.Strobe_vector.tick_and_strobe c))

let strobe_vector_receive =
  let c = Psn_clocks.Strobe_vector.create ~n ~me:0 in
  let stamp = Array.make n 7 in
  Test.make ~name:"strobe_vector.receive(n=16)" (Staged.stage @@ fun () ->
      Psn_clocks.Strobe_vector.receive_strobe c stamp)

let vector_compare =
  let a = Array.init n (fun i -> i) and b = Array.init n (fun i -> i + 1) in
  Test.make ~name:"vector.concurrent(n=16)" (Staged.stage @@ fun () ->
      ignore (Psn_clocks.Vector_clock.concurrent a b))

let matrix_receive =
  let c = Psn_clocks.Matrix_clock.create ~n:8 ~me:0 in
  let stamp = Array.init 8 (fun _ -> Array.make 8 3) in
  Test.make ~name:"matrix.receive(n=8)" (Staged.stage @@ fun () ->
      Psn_clocks.Matrix_clock.receive c ~from:1 stamp)

(* Row-stamp receive against the full-matrix one above: O(n) merge of a
   plane handle instead of the n² matrix merge. *)
let matrix_receive_into =
  let plane = Psn_clocks.Stamp_plane.create ~n:8 () in
  let c = Psn_clocks.Matrix_clock.create ~n:8 ~me:0 in
  let h = Psn_clocks.Stamp_plane.of_array plane (Array.make 8 3) in
  Test.make ~name:"matrix.receive_into(n=8)" (Staged.stage @@ fun () ->
      Psn_clocks.Matrix_clock.receive_row_from plane c ~from:1 h)

let hlc_tick =
  let hw = Psn_clocks.Physical_clock.perfect () in
  let c = Psn_clocks.Hlc.create ~me:0 hw in
  Test.make ~name:"hlc.tick" (Staged.stage @@ fun () ->
      ignore (Psn_clocks.Hlc.tick c ~now:(Sim_time.of_ms 5)))

let engine_event =
  Test.make ~name:"engine.schedule+run(100)" (Staged.stage @@ fun () ->
      let engine = Psn_sim.Engine.create () in
      for i = 1 to 100 do
        ignore
          (Psn_sim.Engine.schedule_at engine (Sim_time.of_us i) (fun () -> ()))
      done;
      Psn_sim.Engine.run engine)

(* Twin of [engine_event] with a live trace sink: the pair bounds the
   tracing overhead (disabled must stay within a few percent of the
   untraced engine; enabled shows the full recording cost). *)
let engine_event_traced =
  Test.make ~name:"engine.schedule+run(100)+trace" (Staged.stage @@ fun () ->
      let sink = Psn_obs.Trace.create () in
      let engine = Psn_sim.Engine.create ~tracer:sink () in
      for i = 1 to 100 do
        ignore
          (Psn_sim.Engine.schedule_at engine (Sim_time.of_us i) (fun () -> ()))
      done;
      Psn_sim.Engine.run engine)

let predicate_eval =
  let open Psn_predicates.Expr in
  let predicate =
    sum (List.init 8 (fun i -> var ~name:"x" ~loc:i -? var ~name:"y" ~loc:i))
    >? int 100
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun i ->
      Hashtbl.replace tbl { name = "x"; loc = i } (Psn_world.Value.Int (20 + i));
      Hashtbl.replace tbl { name = "y"; loc = i } (Psn_world.Value.Int 5))
    (List.init 8 (fun i -> i));
  Test.make ~name:"predicate.eval(8 doors)" (Staged.stage @@ fun () ->
      ignore (eval_bool ~env:(Hashtbl.find_opt tbl) predicate))

(* Compiled twin of [predicate_eval]: same predicate and bindings, one
   compile.  The predicate is a linear comparison with every slot a
   small int, so the per-op cost is the running-sum check, not a
   bytecode run ([predicate_eval_bytecode] below keeps that measured).
   The speedup line in bench-compare pairs these two subjects. *)
let predicate_eval_compiled =
  let open Psn_predicates.Expr in
  let predicate =
    sum (List.init 8 (fun i -> var ~name:"x" ~loc:i -? var ~name:"y" ~loc:i))
    >? int 100
  in
  let prog = Psn_predicates.Compiled.compile predicate in
  let env = Psn_predicates.Compiled.create_env prog in
  List.iter
    (fun i ->
      Psn_predicates.Compiled.set_int env
        (Psn_predicates.Compiled.slot prog { name = "x"; loc = i })
        (20 + i);
      Psn_predicates.Compiled.set_int env
        (Psn_predicates.Compiled.slot prog { name = "y"; loc = i })
        5)
    (List.init 8 (fun i -> i));
  Test.make ~name:"predicate.eval.compiled(8 doors)" (Staged.stage @@ fun () ->
      ignore (Psn_predicates.Compiled.eval_bool prog env))

(* The per-update cost the scorer and the checker pay on the n = 1000
   hall: one [set_int] on a door counter (cycling over all 2000), then
   [eval_bool] — both O(1) on the running sum. *)
let predicate_set_eval_compiled =
  let module Sharded = Psn_scenarios.Sharded in
  let predicate =
    Sharded.hall_predicate
      { Sharded.hall_default with doors = 1000; capacity = 1000 }
  in
  let prog = Psn_predicates.Compiled.compile predicate in
  let env = Psn_predicates.Compiled.create_env prog in
  let nvars = Psn_predicates.Compiled.nvars prog in
  for s = 0 to nvars - 1 do
    Psn_predicates.Compiled.set_int env s 0
  done;
  let next = ref 0 in
  Test.make ~name:"predicate.set+eval.compiled(1000 doors)"
    (Staged.stage @@ fun () ->
      let s = !next in
      next := if s + 1 = nvars then 0 else s + 1;
      Psn_predicates.Compiled.set_int env s (s land 15);
      ignore (Psn_predicates.Compiled.eval_bool prog env))

(* Bytecode twin: ∨ᵢ (loadᵢ > limit) over 8 monitors is neither a
   linear comparison nor an [And], so neither the running sum nor the
   conjunct count answers it and every op is a full bytecode run; all
   loads are under the limit, so no disjunct short-circuits.  (Until
   the conjunct count, this subject ran the calm conjunction.) *)
let predicate_eval_bytecode =
  let open Psn_predicates.Expr in
  let limit = Psn_scenarios.Sharded.calm_default.limit in
  let predicate =
    match List.init 8 (fun i -> var ~name:"load" ~loc:i >? int limit) with
    | first :: rest -> List.fold_left ( ||| ) first rest
    | [] -> assert false
  in
  let prog = Psn_predicates.Compiled.compile predicate in
  let env = Psn_predicates.Compiled.create_env prog in
  for s = 0 to Psn_predicates.Compiled.nvars prog - 1 do
    Psn_predicates.Compiled.set_int env s (limit - 1)
  done;
  Test.make ~name:"predicate.eval.bytecode(8 monitors)"
    (Staged.stage @@ fun () ->
      ignore (Psn_predicates.Compiled.eval_bool prog env))

(* The per-update cost the checker pays on a 1000-monitor calm
   conjunction: one [set_int] on a load (cycling over all 1000, every
   value under the limit), then [eval_bool] — the conjunct count
   re-runs the one dirty conjunct and answers in O(1). *)
let predicate_set_eval_conjunction =
  let module Sharded = Psn_scenarios.Sharded in
  let cfg = { Sharded.calm_default with monitors = 1000 } in
  let prog = Psn_predicates.Compiled.compile (Sharded.calm_predicate cfg) in
  let env = Psn_predicates.Compiled.create_env prog in
  let nvars = Psn_predicates.Compiled.nvars prog in
  for s = 0 to nvars - 1 do
    Psn_predicates.Compiled.set_int env s 0
  done;
  let next = ref 0 in
  Test.make ~name:"predicate.set+eval.compiled(1000 monitors)"
    (Staged.stage @@ fun () ->
      let s = !next in
      next := if s + 1 = nvars then 0 else s + 1;
      Psn_predicates.Compiled.set_int env s (s mod cfg.limit);
      ignore (Psn_predicates.Compiled.eval_bool prog env))

(* Independent (no communication) stamps: the worst case where every one
   of the (k+1)^n cuts is consistent. *)
let independent_stamps ~n ~k =
  Array.init n (fun i ->
      Array.init k (fun e ->
          let v = Array.make n 0 in
          v.(i) <- e + 1;
          v))

let lattice_count =
  (* 3 processes x 4 events, no communication: 125 cuts. *)
  let stamps = independent_stamps ~n:3 ~k:4 in
  Test.make ~name:"lattice.count(3x4)" (Staged.stage @@ fun () ->
      ignore (Psn_lattice.Lattice.count_consistent stamps))

let detector_run =
  Test.make ~name:"hall.run(4 doors, 5min)" (Staged.stage @@ fun () ->
      let config =
        {
          Psn.Config.default with
          n = 4;
          horizon = Sim_time.of_sec 300;
          delay =
            Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 10)
              ~max:(Sim_time.of_ms 100);
        }
      in
      ignore (Psn_scenarios.Exhibition_hall.run config))

let flood_ring =
  Test.make ~name:"flood.ring(n=8)" (Staged.stage @@ fun () ->
      let engine = Psn_sim.Engine.create () in
      let flood =
        Psn_network.Flood.create engine
          ~topology:(Psn_util.Graph.ring ~n:8)
          ~delay:Psn_sim.Delay_model.synchronous
      in
      Psn_network.Flood.flood flood ~src:0 ();
      Psn_sim.Engine.run engine)

let causal_burst =
  Test.make ~name:"causal_broadcast.burst(4x5)" (Staged.stage @@ fun () ->
      let engine = Psn_sim.Engine.create () in
      let cb =
        Psn_middleware.Causal_broadcast.create engine ~n:4
          ~delay:Psn_sim.Delay_model.synchronous
          ~deliver:(fun ~dst:_ ~src:_ () -> ())
          ()
      in
      for src = 0 to 3 do
        for _ = 1 to 5 do
          Psn_middleware.Causal_broadcast.broadcast cb ~src ()
        done
      done;
      Psn_sim.Engine.run engine)

let snapshot_round =
  Test.make ~name:"snapshot.round(n=4)" (Staged.stage @@ fun () ->
      let engine = Psn_sim.Engine.create () in
      let sys =
        Psn_middleware.Snapshot.create engine ~n:4
          ~delay:Psn_sim.Delay_model.synchronous
          ~local_state:(fun i -> i)
          ~apply:(fun ~dst:_ ~src:_ () -> ())
          ()
      in
      Psn_middleware.Snapshot.initiate sys ~by:0;
      Psn_sim.Engine.run engine)

let mutex_round =
  Test.make ~name:"mutex.round(n=4)" (Staged.stage @@ fun () ->
      let engine = Psn_sim.Engine.create () in
      let mutex =
        Psn_middleware.Mutex.create engine ~n:4
          ~delay:Psn_sim.Delay_model.synchronous
      in
      for who = 0 to 3 do
        Psn_middleware.Mutex.request mutex ~who ~grant:(fun () ->
            ignore
              (Psn_sim.Engine.schedule_after engine (Sim_time.of_us 1)
                 (fun () -> Psn_middleware.Mutex.release mutex ~who)))
      done;
      Psn_sim.Engine.run engine)

(* --- PR2 event-core subjects ------------------------------------------- *)

let noop () = ()

let engine_create =
  Test.make ~name:"engine.create" (Staged.stage @@ fun () ->
      ignore (Sys.opaque_identity (Psn_sim.Engine.create ())))

(* Fast-path twin of [engine_event]: fire-and-forget scheduling, no
   cancellation handles. *)
let engine_event_unit =
  Test.make ~name:"engine.schedule_unit+run(100)" (Staged.stage @@ fun () ->
      let engine = Psn_sim.Engine.create () in
      for i = 1 to 100 do
        Psn_sim.Engine.schedule_at_unit engine (Sim_time.of_us i) noop
      done;
      Psn_sim.Engine.run engine)

(* Steady-state queue churn: one add + one pop against [k] pending
   events, so the heap depth under test stays constant. *)
let queue_add_pop ~label k =
  let q = Psn_sim.Event_queue.create ~dummy:noop () in
  for i = 0 to k - 1 do
    Psn_sim.Event_queue.add q ~time_ns:i noop
  done;
  let t = ref k in
  Test.make ~name:(Printf.sprintf "queue.add+pop(%s pending)" label)
    (Staged.stage @@ fun () ->
      incr t;
      Psn_sim.Event_queue.add q ~time_ns:!t noop;
      let (_ : unit -> unit) = Sys.opaque_identity (Psn_sim.Event_queue.pop_exn q) in
      ())

let queue_1k = queue_add_pop ~label:"1k" 1_000
let queue_100k = queue_add_pop ~label:"100k" 100_000

let net_broadcast =
  Test.make ~name:"net.broadcast(n=16)" (Staged.stage @@ fun () ->
      let engine = Psn_sim.Engine.create () in
      let net =
        Psn_network.Net.create engine ~n:16
          ~delay:Psn_sim.Delay_model.synchronous
      in
      for i = 0 to 15 do
        Psn_network.Net.set_handler net i (fun ~src:_ () -> ())
      done;
      Psn_network.Net.broadcast net ~src:0 ();
      Psn_sim.Engine.run engine)

(* Dispatch latency of the persistent domain pool: tiny payload, so the
   handshake (publish job, wake workers, join) dominates. *)
let pool_dispatch =
  let xs = Array.init 16 (fun i -> i) in
  Test.make ~name:"pool.dispatch(16)" (Staged.stage @@ fun () ->
      ignore
        (Sys.opaque_identity
           (Psn_util.Parallel.map_array ~domains:2 (fun x -> x + 1) xs)))

(* --- PR3 packed-lattice subjects ---------------------------------------- *)

(* Larger free lattice: 2401 cuts, exercises wide frontiers. *)
let lattice_count_4x6 =
  let stamps = independent_stamps ~n:4 ~k:6 in
  Test.make ~name:"lattice.count(4x6)" (Staged.stage @@ fun () ->
      ignore (Psn_lattice.Lattice.count_consistent stamps))

(* Fused Definitely over the free 3x4 lattice with φ = ⊤ only: the walk
   sweeps all 124 non-top cuts before concluding [Some true]. *)
let modal_definitely =
  let stamps = independent_stamps ~n:3 ~k:4 in
  let holds (c : int array) = c.(0) = 4 && c.(1) = 4 && c.(2) = 4 in
  Test.make ~name:"modal.definitely(3x4)" (Staged.stage @@ fun () ->
      ignore (Psn_lattice.Modal.definitely stamps ~holds))

(* --- PR7 sharded-engine subjects ----------------------------------------- *)

(* Headline scaling workload: the shard-aware exhibition hall at 1000
   doors, run once on the single-queue oracle and once per shard count
   on the conservative-window engine.  Same construction and seed
   everywhere (the differential suite proves the results identical), so
   the ns/op ratios are pure engine overhead/scaling.  On a single-core
   host the sharded subjects measure the window-barrier cost; the
   speedup target needs real parallel hardware (see README). *)
let sharded_hall_cfg =
  let detect =
    {
      Psn_scenarios.Sharded.default_detect with
      groups = 8;
      flush_period = Sim_time.of_ms 250;
      horizon = Sim_time.of_sec 60;
    }
  in
  {
    Psn_scenarios.Sharded.doors = 1000;
    capacity = 120;
    visitors = 400;
    dwell_mean = 45.0;
    detect;
  }

let hall_run_single =
  Test.make ~name:"hall.run(n=1000)" (Staged.stage @@ fun () ->
      ignore
        (Sys.opaque_identity
           (Psn_scenarios.Sharded.hall ~cfg:sharded_hall_cfg
              (Psn_sim.Exec.single ()))))

let hall_run_sharded k =
  let lookahead =
    Psn_sim.Delay_model.min_delay sharded_hall_cfg.detect.delay
  in
  Test.make ~name:(Printf.sprintf "hall.run.sharded(%d)" k)
    (Staged.stage @@ fun () ->
      ignore
        (Sys.opaque_identity
           (Psn_scenarios.Sharded.hall ~cfg:sharded_hall_cfg
              (Psn_sim.Exec.sharded ~shards:k ~lookahead ()))))

(* --- Checker flush subjects --------------------------------------------- *)

(* Checker flush cost under an n-way conjunction, at a fixed update
   count and growing n.  The central [Compiled] checker answers it from
   its conjunct count: an applied update re-runs the one conjunct it
   reads and reads the verdict off two counters, so the n=100 → n=1000
   pair measures whether apply cost stays independent of predicate
   width (the interpreted checker re-walked all n conjuncts per applied
   update); the K=1 → K=4 pair adds the window-barrier overhead.  The
   subjects first measured a partitioned checker, since deleted; their
   names are kept so bench-compare pairs them with older snapshots. *)
let detector_flush ~n ~k =
  let delay =
    Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 2)
      ~max:(Sim_time.of_ms 5)
  in
  let groups = n / 25 in
  let cfg =
    {
      Psn_detection.Sharded_detector.n;
      groups;
      group_of = (fun pid -> pid * groups / n);
      eps = Sim_time.of_ms 1;
      hold = Sim_time.of_ms 20;
      flush_period = Sim_time.of_ms 10;
      causal_stamps = false;
    }
  in
  let predicate =
    let open Psn_predicates.Expr in
    match List.init n (fun i -> var ~name:"v" ~loc:i >=? int 0) with
    | first :: rest -> List.fold_left ( &&& ) first rest
    | [] -> assert false
  in
  let horizon = Sim_time.of_ms 1_050 in
  Test.make ~name:(Printf.sprintf "detector.flush(n=%d, K=%d)" n k)
    (Staged.stage @@ fun () ->
      let exec =
        Psn_sim.Exec.sharded ~shards:k
          ~lookahead:(Psn_sim.Delay_model.min_delay delay) ()
      in
      let det =
        Psn_detection.Sharded_detector.create exec ~cfg ~delay
          ~predicate ()
      in
      (* 10k updates, round-robin over the sources at 0.1 ms spacing
         (1 s span): enough applied updates that the apply path, not the
         O(n) detector construction, dominates the measurement. *)
      for j = 0 to 9_999 do
        let src = j mod n in
        Psn_sim.Engine.schedule_at_unit
          (Psn_sim.Exec.engine exec ~group:(cfg.group_of src))
          (Sim_time.of_us ((j + 1) * 100))
          (fun () ->
            Psn_detection.Sharded_detector.emit det ~src ~var:"v" ~value:j)
      done;
      Psn_sim.Exec.run exec ~until:horizon;
      ignore
        (Sys.opaque_identity (Psn_detection.Sharded_detector.occurrences det)))

let detector_flush_100 = detector_flush ~n:100 ~k:1
let detector_flush_1000 = detector_flush ~n:1000 ~k:1
let detector_flush_1000_k4 = detector_flush ~n:1000 ~k:4

(* --- PR6 trace-analytics subjects ---------------------------------------- *)

(* A synthetic, time-ordered record stream: 4k flow edges into checker 0
   with jittered delivery, one occurrence every 16 edges whose window
   reaches back exactly to its trigger's send — so the analyzer's
   critical-path resolution runs on every occurrence.  Built once and
   replayed by both subjects. *)
let analyzer_sink =
  lazy
    (let sink = Psn_obs.Trace.create () in
     for i = 0 to 4095 do
       let t = (i + 1) * 1_000 in
       let src = 1 + (i mod 3) in
       let flow = Psn_obs.Trace.fresh_flow sink in
       Psn_obs.Trace.emit sink ~time:t ~pid:src
         (Psn_obs.Trace.Net_send
            { src; dst = 0; words = 4; kind = "detector"; flow });
       Psn_obs.Trace.emit sink
         ~time:(t + 300 + (i mod 7 * 50))
         ~pid:0
         (Psn_obs.Trace.Net_deliver { src; dst = 0; kind = "detector"; flow });
       if i mod 16 = 0 then
         Psn_obs.Trace.emit sink ~time:(t + 600) ~pid:0
           (Psn_obs.Trace.Detector_occurrence
              { verdict = "positive"; window_ns = 600 })
     done;
     sink)

(* Analyzer throughput, post-hoc vs online: same stream, the online twin
   carries a retirement horizon so its edge ring keeps retiring while it
   feeds.  ns/op here is per full 4k-edge replay. *)
let analyze_replay ~name ~horizon_ns =
  let sink = Lazy.force analyzer_sink in
  Test.make ~name (Staged.stage @@ fun () ->
      let az = Psn_obs.Analyze.create ?horizon_ns () in
      Psn_obs.Analyze.feed_sink az sink;
      ignore (Sys.opaque_identity (Psn_obs.Analyze.occurrences az)))

let analyze_posthoc =
  analyze_replay ~name:"analyze.posthoc(4k edges)" ~horizon_ns:None

let analyze_online =
  analyze_replay ~name:"analyze.online(4k edges)" ~horizon_ns:(Some 50_000)

(* --- PR9 shard-observability subject -------------------------------------- *)

(* The K=4 sharded hall run plus [Analyze.sharded] over its round
   totals.  Against infra/hall.run.sharded(4) — the identical
   run, whose engine records the same always-on flat-int counters — the
   ratio isolates the post-hoc analysis cost and bounds the whole
   observability tax at a few percent. *)
let shardstats_overhead =
  let lookahead =
    Psn_sim.Delay_model.min_delay sharded_hall_cfg.detect.delay
  in
  Test.make ~name:"shardstats.overhead" (Staged.stage @@ fun () ->
      let exec = Psn_sim.Exec.sharded ~shards:4 ~lookahead () in
      ignore
        (Sys.opaque_identity
           (Psn_scenarios.Sharded.hall ~cfg:sharded_hall_cfg exec));
      match Psn_sim.Exec.stats exec with
      | Some st -> ignore (Sys.opaque_identity (Psn_obs.Analyze.sharded st))
      | None -> ())

(* --- PR10 streaming-lattice subjects -------------------------------------- *)

module Streaming = Psn_lattice.Streaming

(* Bounded-slab synthetic stream: 4 processes in near-lockstep rounds,
   each event carrying knowledge of every other process up to one round
   back, so the live slab stays a few cuts wide whatever the run length.
   The 10k/100k pair plus the peak_live_cuts evidence rows appended
   below carry the bounded-memory claim in psn-bench/1 form: ns/op
   grows ~10x with the event count while the peak occupancy rows stay
   identical. *)
let stream_n = 4

let stream_walk ~events =
  let rounds = events / stream_n in
  let s =
    Streaming.create ~n:stream_n ~holds:(fun c -> c.(0) land 1 = 0) ()
  in
  let stamp = Array.make stream_n 0 in
  for k = 0 to rounds - 1 do
    for i = 0 to stream_n - 1 do
      for j = 0 to stream_n - 1 do
        stamp.(j) <- (if j = i then k + 1 else max 0 (k - 1))
      done;
      Streaming.observe s ~pid:i ~stamp
    done
  done;
  Streaming.finish s;
  s

let lattice_stream ~label ~events =
  Test.make ~name:(Printf.sprintf "lattice.stream(events=%s)" label)
    (Staged.stage @@ fun () ->
      ignore (Sys.opaque_identity (stream_walk ~events)))

let lattice_stream_10k = lattice_stream ~label:"10k" ~events:10_000
let lattice_stream_100k = lattice_stream ~label:"100k" ~events:100_000

(* End-to-end online detection: 3 monitors (the cut lattice is
   exponential in concurrency, so modal walks run narrow), 2k updates
   round-robin at 0.5 ms spacing with 2–5 ms delays — slower than the
   inter-update gap, so flushes see genuinely concurrent stamps — on the
   10 ms hold-back flush schedule.  Every iteration builds the detector
   afresh; at n = 3 construction is a small share of the op ([Profile]
   splits it out as detector.setup). *)
let detector_stream_flush =
  let delay =
    Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 2)
      ~max:(Sim_time.of_ms 5)
  in
  let n = 3 in
  let cfg =
    {
      Psn_detection.Streaming_detector.n;
      groups = 1;
      group_of = (fun _ -> 0);
      eps = Sim_time.of_ms 1;
      hold = Sim_time.of_ms 20;
      flush_period = Sim_time.of_ms 10;
      cap = 200_000;
    }
  in
  let predicate =
    let open Psn_predicates.Expr in
    match List.init n (fun i -> var ~name:"v" ~loc:i >=? int 0) with
    | first :: rest -> List.fold_left ( &&& ) first rest
    | [] -> assert false
  in
  Test.make ~name:(Printf.sprintf "detector.stream.flush(n=%d)" n)
    (Staged.stage @@ fun () ->
      let exec = Psn_sim.Exec.single () in
      let det =
        Psn_detection.Streaming_detector.create exec ~cfg ~delay
          ~predicate ()
      in
      for j = 0 to 1_999 do
        let src = j mod n in
        Psn_sim.Engine.schedule_at_unit
          (Psn_sim.Exec.engine exec ~group:0)
          (Sim_time.of_us ((j + 1) * 500))
          (fun () ->
            Psn_detection.Streaming_detector.emit det ~src ~var:"v" ~value:j)
      done;
      Psn_sim.Exec.run exec ~until:(Sim_time.of_ms 1_050);
      Psn_detection.Streaming_detector.finish det;
      ignore
        (Sys.opaque_identity (Psn_detection.Streaming_detector.edges det)))

(* Named subject groups; names in reports are "group/subject". *)
let subjects =
  [
    ( "clocks",
      [
        lamport_tick; lamport_receive; vector_tick; vector_receive;
        vector_receive_copy; vector_receive_into; strobe_scalar_tick;
        strobe_vector_tick; strobe_vector_receive; vector_compare;
        matrix_receive; matrix_receive_into; hlc_tick;
      ] );
    ( "infra",
      [
        engine_event; engine_event_traced; predicate_eval;
        predicate_eval_compiled; predicate_set_eval_compiled;
        predicate_eval_bytecode; predicate_set_eval_conjunction; lattice_count;
        detector_run; hall_run_single;
        hall_run_sharded 1; hall_run_sharded 2; hall_run_sharded 4;
        detector_flush_100; detector_flush_1000; detector_flush_1000_k4;
        detector_stream_flush;
      ] );
    ( "middleware",
      [ flood_ring; causal_burst; snapshot_round; mutex_round ] );
    ( "event_core",
      [
        engine_create; engine_event_unit; queue_1k; queue_100k; net_broadcast;
        pool_dispatch;
      ] );
    ( "lattice",
      [
        lattice_count_4x6; modal_definitely;
        lattice_stream_10k; lattice_stream_100k;
      ] );
    ("obs", [ analyze_posthoc; analyze_online; shardstats_overhead ]);
  ]

(* Per-subject sampling budget, seconds.  The default keeps the full
   sweep fast; committed snapshots are recorded with a larger quota
   (PSN_BENCH_QUOTA=2) so the OLS fit averages over scheduler noise. *)
let quota =
  match Option.bind (Sys.getenv_opt "PSN_BENCH_QUOTA") float_of_string_opt with
  | Some q when q > 0.0 -> q
  | _ -> 0.25

let benchmark test =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~stabilize:true ~quota:(Time.second quota) ()
  in
  Benchmark.all cfg instances test

let analyze raw =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Analyze.all ols Instance.monotonic_clock raw

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Split a --only spec on commas at parenthesis depth zero, so patterns
   may quote full subject names whose argument lists contain commas —
   "hall.run(4 doors, 5min)" or "hall.run.sharded(4)" — consistently
   with the (n=...) naming everywhere else. *)
let split_patterns spec =
  let out = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | '(' ->
          incr depth;
          Buffer.add_char buf c
      | ')' ->
          if !depth > 0 then decr depth;
          Buffer.add_char buf c
      | ',' when !depth = 0 -> flush ()
      | c -> Buffer.add_char buf c)
    spec;
  flush ();
  List.rev !out

(* Run the (optionally filtered) subjects and return [(name, ns/op)]
   rows sorted by name; estimates that failed to converge come back as
   [None].  [only] is a list of substrings; a subject runs when any
   matches its "group/subject" name. *)
let run_microbenches ?only () =
  let keep group t =
    match only with
    | None -> true
    | Some pats ->
        let name = group ^ "/" ^ Test.name t in
        List.exists (contains name) pats
  in
  let results = ref [] in
  List.iter
    (fun (group, tests) ->
      match List.filter (keep group) tests with
      | [] -> ()
      | tests ->
          let analyzed = analyze (benchmark (Test.make_grouped ~name:group tests)) in
          Hashtbl.iter
            (fun name ols ->
              let est =
                match Analyze.OLS.estimates ols with
                | Some (e :: _) -> Some e
                | _ -> None
              in
              results := (name, est) :: !results)
            analyzed)
    subjects;
  List.sort compare !results

(* Slab-occupancy evidence for the streaming subjects, reported through
   the same psn-bench/1 rows as the timing estimates (these rows are
   counts of cuts, not ns/op).  They are deterministic — the walk is
   pure over the synthetic stream — so bench-compare holds them to a
   tight per-subject threshold (peak_live_cuts=1 in the Makefile/CI
   invocations): any growth of either peak past its committed baseline
   fails CI, which is the bounded-memory acceptance criterion (flat
   peak across a 10x event count).  Rows obey --only the same way the
   timing subjects do: the evidence name contains its subject's name. *)
let stream_evidence_rows ?only () =
  let keep name =
    match only with
    | None -> true
    | Some pats -> List.exists (contains name) pats
  in
  List.filter_map
    (fun (label, events) ->
      let name =
        Printf.sprintf "lattice/lattice.stream(events=%s).peak_live_cuts" label
      in
      if keep name then
        let s = stream_walk ~events in
        Some (name, Some (float_of_int (Streaming.peak_live_cuts s)))
      else None)
    [ ("10k", 10_000); ("100k", 100_000) ]

let print_rows rows =
  print_endline "== E10: clock and infrastructure microbenchmarks ==";
  print_endline
    "claim: implied scaling - strobe/clock operations are cheap enough for\n\
     sensor-node firmware; vector ops scale with n\n";
  let rows =
    List.map
      (fun (name, est) ->
        [
          name;
          (match est with Some e -> Printf.sprintf "%.1f" e | None -> "n/a");
        ])
      rows
  in
  Psn_util.Table.print ~headers:[ "operation"; "ns/op" ] ~rows ();
  print_newline ()

(* Schema "psn-bench/1" (documented in DESIGN.md): one object mapping
   "group/subject" to its OLS ns/op estimate (null when the fit failed). *)
let write_json path rows =
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc "  \"schema\": \"psn-bench/1\",\n";
  output_string oc "  \"unit\": \"ns/op\",\n";
  output_string oc "  \"subjects\": {\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, est) ->
      let v = match est with Some e -> Printf.sprintf "%.1f" e | None -> "null" in
      Printf.fprintf oc "    %S: %s%s\n" name v (if i < n - 1 then "," else ""))
    rows;
  output_string oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d subjects)\n" path n

(* --- regression diffing (--compare) ------------------------------------- *)

(* Load a psn-bench/1 snapshot (the format [write_json] emits) as
   [(subject, ns/op)]; null estimates are skipped. *)
let load_baseline path =
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let open Psn_obs.Json in
  match of_string contents with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok doc -> (
      (match member "schema" doc with
      | Some (Str "psn-bench/1") -> ()
      | _ -> Printf.eprintf "warning: %s: not a psn-bench/1 snapshot\n" path);
      match member "subjects" doc with
      | Some (Obj fields) ->
          Ok
            (List.filter_map
               (fun (name, v) ->
                 match v with
                 | Int i -> Some (name, float_of_int i)
                 | Float f -> Some (name, f)
                 | _ -> None)
               fields)
      | _ -> Error (Printf.sprintf "%s: no \"subjects\" object" path))

(* Regression thresholds: one default percentage plus per-subject
   overrides matched by substring (first match wins), so CI can hold a
   noisy cross-machine subject to a loose bound without loosening every
   other subject with it. *)
type thresholds = { default_pct : float; per : (string * float) list }

(* "--threshold 25" or "--threshold pool.dispatch=250,analyze=60,25":
   bare numbers set the default, NAME=PCT entries the overrides. *)
let parse_thresholds spec =
  List.fold_left
    (fun acc part ->
      match acc with
      | Error _ as e -> e
      | Ok th -> (
          match String.index_opt part '=' with
          | None -> (
              match float_of_string_opt part with
              | Some p when p > 0.0 -> Ok { th with default_pct = p }
              | _ -> Error part)
          | Some i -> (
              let name = String.sub part 0 i in
              let pct = String.sub part (i + 1) (String.length part - i - 1) in
              match float_of_string_opt pct with
              | Some p when p > 0.0 && name <> "" ->
                  Ok { th with per = th.per @ [ (name, p) ] }
              | _ -> Error part)))
    (Ok { default_pct = 25.0; per = [] })
    (String.split_on_char ',' spec)

let threshold_for th name =
  match List.find_opt (fun (pat, _) -> contains name pat) th.per with
  | Some (_, p) -> p
  | None -> th.default_pct

(* For a subject that exists only in the newer snapshot, find the
   subject it is a variant of — "infra/hall.run.sharded(4)" reads
   against "infra/hall.run(...)" — so the table can report a speedup
   line instead of a bare "new" marker.  A base can carry several
   parameterizations ("hall.run(4 doors, 5min)" next to
   "hall.run(n=1000)"), so among candidates pick the one closest in
   magnitude to [now]: the variant is a re-execution of the same
   workload, not a differently-sized one. *)
let sibling_of rows name now =
  match String.index_opt name '(' with
  | None -> None
  | Some i -> (
      let head = String.sub name 0 i in
      match String.rindex_opt head '.' with
      | None -> None
      | Some j ->
          let base = String.sub head 0 j in
          List.filter_map
            (fun (other, est) ->
              match est with
              | Some ns
                when other <> name
                     && String.length other > String.length base
                     && String.sub other 0 (String.length base) = base
                     && other.[String.length base] = '(' ->
                  Some (other, ns)
              | _ -> None)
            rows
          |> List.fold_left
               (fun best (other, ns) ->
                 let d = Float.abs (log (ns /. now)) in
                 match best with
                 | Some (_, _, bd) when bd <= d -> best
                 | _ -> Some (other, ns, d))
               None
          |> Option.map (fun (other, ns, _) -> (other, ns)))

(* Per-subject delta table against a baseline snapshot; [true] when some
   subject regressed past its threshold.  Subjects present on only one
   side are reported but never fail the comparison: newer-only subjects
   get a speedup line against their closest sibling in the same run,
   and improvements past the threshold are called out as speedups. *)
let compare_against ~thresholds:th baseline rows =
  let table_rows = ref [] and regressed = ref [] in
  List.iter
    (fun (name, est) ->
      match (est, List.assoc_opt name baseline) with
      | None, _ -> ()
      | Some now, None ->
          let note =
            match if now > 0.0 then sibling_of rows name now else None with
            | Some (base_name, base_ns) ->
                Printf.sprintf "new; %.2fx vs %s" (base_ns /. now) base_name
            | None -> "new"
          in
          table_rows := [ name; "-"; Printf.sprintf "%.1f" now; note ] :: !table_rows
      | Some now, Some old ->
          let delta = if old > 0.0 then (now -. old) /. old *. 100.0 else 0.0 in
          let limit = threshold_for th name in
          let flag =
            if delta > limit then begin
              regressed := (name, limit) :: !regressed;
              "  REGRESSED"
            end
            else if delta < -.limit && now > 0.0 then
              Printf.sprintf "  %.2fx faster" (old /. now)
            else ""
          in
          table_rows :=
            [
              name;
              Printf.sprintf "%.1f" old;
              Printf.sprintf "%.1f" now;
              Printf.sprintf "%+.1f%%%s" delta flag;
            ]
            :: !table_rows)
    rows;
  Printf.printf "== bench comparison (default threshold %.0f%%%s) ==\n"
    th.default_pct
    (if th.per = [] then ""
     else
       Printf.sprintf ", %s"
         (String.concat ", "
            (List.map (fun (n, p) -> Printf.sprintf "%s=%.0f%%" n p) th.per)));
  Psn_util.Table.print
    ~headers:[ "subject"; "old ns/op"; "new ns/op"; "delta" ]
    ~rows:(List.rev !table_rows) ();
  (match !regressed with
  | [] -> print_endline "no regressions past threshold"
  | entries ->
      Printf.printf "REGRESSION: %d subject(s) slower than baseline: %s\n"
        (List.length entries)
        (String.concat ", "
           (List.rev_map
              (fun (n, limit) -> Printf.sprintf "%s (>%.0f%%)" n limit)
              entries)));
  !regressed <> []

let () =
  let json = ref None and only = ref None in
  let compare_to = ref None in
  let thresholds = ref { default_pct = 25.0; per = [] } in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--only" :: s :: rest ->
        only := Some (split_patterns s);
        parse rest
    | "--compare" :: path :: rest ->
        compare_to := Some path;
        parse rest
    | "--threshold" :: spec :: rest -> (
        match parse_thresholds spec with
        | Ok th ->
            thresholds := th;
            parse rest
        | Error part ->
            Printf.eprintf
              "bench: --threshold expects PCT or NAME=PCT entries \
               (comma-separated, positive percents); bad entry %S\n"
              part;
            exit 2)
    | arg :: _ ->
        Printf.eprintf
          "usage: bench [--only SUBSTR[,SUBSTR...]] [--json FILE] \
           [--compare OLD.json [--threshold [PCT][,NAME=PCT...]]]; \
           unknown argument %S\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rows =
    List.sort compare
      (run_microbenches ?only:!only () @ stream_evidence_rows ?only:!only ())
  in
  print_rows rows;
  (match !json with Some path -> write_json path rows | None -> ());
  let regression =
    match !compare_to with
    | None -> false
    | Some path -> (
        match load_baseline path with
        | Error msg ->
            Printf.eprintf "bench: %s\n" msg;
            exit 2
        | Ok baseline -> compare_against ~thresholds:!thresholds baseline rows)
  in
  (* The claim-table part of the default run; skipped in micro-only
     invocations (--only / --json / --compare) so `make bench-json` stays
     fast. *)
  if !json = None && !only = None && !compare_to = None then begin
    let quick =
      match Sys.getenv_opt "PSN_BENCH_FULL" with Some _ -> false | None -> true
    in
    Psn_experiments.Experiments.print_all ~quick ()
  end;
  if regression then exit 1
