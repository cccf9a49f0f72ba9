(* Traced compositions of the scale-stack scenarios.

   [hall] and [stream] make the same public calls, in the same order, as
   [Psn_scenarios.Sharded.hall] and [Sharded.stream], with a span around
   each call.  The scenario module keeps its entity streams and initial
   state private, so those few lines are restated here; the traced pass
   compares its result with the untraced public call and flags its
   ledger stale when they differ. *)

module Sharded = Psn_scenarios.Sharded
module Exec = Psn_sim.Exec
module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Rng = Psn_util.Rng
module Expr = Psn_predicates.Expr
module D = Psn_detection
module Streaming = Psn_lattice.Streaming

(* As in lib/scenarios/sharded.ml. *)
let entity_rng seed tag =
  Rng.create
    ~seed:(Int64.add seed (Int64.mul (Int64.of_int (tag + 1)) 0xBF58476D1CE4E5B9L))
    ()

(* The predicate's own copy of a variable name.  Ground_truth keys its
   Hashtbl on [Expr.var], whose comparison short-cuts on physically equal
   names; [Sharded] uses one literal throughout, and names equal only by
   content made Ground_truth about 10% slower on hall_1k. *)
let var_name predicate name =
  (List.find (fun (v : Expr.var) -> String.equal v.name name) (Expr.vars predicate))
    .name

let hall_init ~x ~y (cfg : Sharded.hall_cfg) =
  List.concat
    (List.init cfg.doors (fun i ->
         [
           ({ Expr.name = x; loc = i }, Psn_world.Value.Int 0);
           ({ Expr.name = y; loc = i }, Psn_world.Value.Int 0);
         ]))

(* Wraps a detector's [emit] in a leaf span whose parent is the open
   [exec.run] span; sense events may run on any shard's domain. *)
let traced_emit sp name run_id emit ~src ~var ~value =
  let start = Span.now_ns () in
  emit ~src ~var ~value;
  Span.leaf sp ~parent:!run_id name ~start ~stop:(Span.now_ns ())

let hall sp (cfg : Sharded.hall_cfg) exec =
  let span name f = Span.with_span sp name f in
  let dc = cfg.detect in
  let group_of pid = pid * dc.groups / cfg.doors in
  let seed = Exec.seed exec in
  span "hall" @@ fun () ->
  let predicate, x, y, init =
    span "scenario.predicate" (fun () ->
        let predicate = Sharded.hall_predicate cfg in
        let x = var_name predicate "x" and y = var_name predicate "y" in
        (predicate, x, y, hall_init ~x ~y cfg))
  in
  let det =
    span "sharded_detector.create" (fun () ->
        D.Sharded_detector.create ~loss:dc.loss ~checker:dc.checker exec
          ~cfg:
            {
              D.Sharded_detector.n = cfg.doors;
              groups = dc.groups;
              group_of;
              eps = dc.eps;
              hold = dc.hold;
              flush_period = dc.flush_period;
              causal_stamps = dc.causal_stamps;
            }
          ~delay:dc.delay ~predicate ())
  in
  let run_id = ref (-1) in
  let emit =
    traced_emit sp "sharded_detector.emit" run_id (D.Sharded_detector.emit det)
  in
  span "scenario.populate" (fun () ->
      let xs = Array.make cfg.doors 0 and ys = Array.make cfg.doors 0 in
      for v = 0 to cfg.visitors - 1 do
        let rng = entity_rng seed v in
        let rec walk t inside =
          let dwell = Rng.exponential rng ~mean:cfg.dwell_mean in
          let t' = Sim_time.add t (Sim_time.of_sec_float dwell) in
          if Sim_time.( < ) t' dc.horizon then begin
            let door = Rng.int rng cfg.doors in
            let engine = Exec.engine exec ~group:(group_of door) in
            if inside then
              Engine.schedule_at_unit engine t' (fun () ->
                  ys.(door) <- ys.(door) + 1;
                  emit ~src:door ~var:y ~value:ys.(door))
            else
              Engine.schedule_at_unit engine t' (fun () ->
                  xs.(door) <- xs.(door) + 1;
                  emit ~src:door ~var:x ~value:xs.(door));
            walk t' (not inside)
          end
        in
        walk Sim_time.zero false
      done);
  span "exec.run" (fun () ->
      run_id := Span.current sp;
      Exec.run exec ~until:dc.horizon);
  let updates =
    span "sharded_detector.updates" (fun () -> D.Sharded_detector.updates det)
  in
  let truth =
    span "ground_truth.intervals" (fun () ->
        D.Ground_truth.intervals ~init ~updates ~predicate ~horizon:dc.horizon ())
  in
  let occurrences =
    span "sharded_detector.occurrences" (fun () ->
        D.Sharded_detector.occurrences det)
  in
  let summary =
    span "metrics.score" (fun () ->
        D.Metrics.score ~tolerance:dc.tolerance ~policy:D.Metrics.As_positive
          ~truth ~detections:occurrences ())
  in
  let report =
    span "report.assemble" (fun () ->
        let net = D.Sharded_detector.net det in
        {
          Psn.Report.summary;
          truth;
          occurrences;
          updates = List.length updates;
          messages = Psn_network.Shard_net.sent net;
          words = Psn_network.Shard_net.words net;
          dropped = Psn_network.Shard_net.dropped net;
          sim_events = Exec.events_processed exec;
          horizon = dc.horizon;
          metrics = Exec.merged_metrics exec;
          sharding =
            (if Exec.is_sharded exec then
               Some
                 {
                   Psn.Report.si_windows = Exec.windows exec;
                   si_per_shard = Exec.shard_snapshots exec;
                 }
             else None);
        })
  in
  (report, det)

(* The walk's observe stream, flattened: each event is its pid followed
   by its [n] stamp components. *)
type capture = { n : int; mutable data : int array; mutable len : int }

let capture n = { n; data = Array.make (1024 * (n + 1)) 0; len = 0 }

let record c ~pid ~stamp =
  if c.len + c.n + 1 > Array.length c.data then begin
    let data = Array.make (2 * Array.length c.data) 0 in
    Array.blit c.data 0 data 0 c.len;
    c.data <- data
  end;
  c.data.(c.len) <- pid;
  Array.blit stamp 0 c.data (c.len + 1) c.n;
  c.len <- c.len + c.n + 1

(* Per-process stamp sequences, the post-hoc lattice's input. *)
let stamps c =
  let per = Array.make c.n [] in
  let i = ref (c.len - c.n - 1) in
  while !i >= 0 do
    let pid = c.data.(!i) in
    per.(pid) <- Array.sub c.data (!i + 1) c.n :: per.(pid);
    i := !i - c.n - 1
  done;
  Array.map Array.of_list per

let stream sp ~on_observe (cfg : Sharded.stream_cfg) exec =
  let span name f = Span.with_span sp name f in
  let dc = cfg.s_detect in
  let group_of pid = pid * dc.groups / cfg.s_monitors in
  let seed = Exec.seed exec in
  span "stream" @@ fun () ->
  let predicate, load_name =
    span "scenario.predicate" (fun () ->
        let predicate = Sharded.stream_predicate cfg in
        (predicate, var_name predicate "load"))
  in
  let det =
    span "streaming_detector.create" (fun () ->
        D.Streaming_detector.create ~loss:dc.loss ~on_observe exec
          ~cfg:
            {
              D.Streaming_detector.n = cfg.s_monitors;
              groups = dc.groups;
              group_of;
              eps = dc.eps;
              hold = dc.hold;
              flush_period = dc.flush_period;
              cap = cfg.s_cap;
            }
          ~delay:dc.delay ~predicate ())
  in
  let run_id = ref (-1) in
  let emit =
    traced_emit sp "streaming_detector.emit" run_id
      (D.Streaming_detector.emit det)
  in
  span "scenario.populate" (fun () ->
      for m = 0 to cfg.s_monitors - 1 do
        let rng = entity_rng seed m in
        let engine = Exec.engine exec ~group:(group_of m) in
        let load = ref 80 in
        let rec samples t =
          let gap = Rng.exponential rng ~mean:cfg.s_sample_period in
          let at = Sim_time.add t (Sim_time.of_sec_float gap) in
          if Sim_time.( < ) at dc.horizon then begin
            Engine.schedule_at_unit engine at (fun () ->
                let spiked = Rng.int rng 25 = 0 in
                load :=
                  (if spiked then 70 + Rng.int rng 30
                   else
                     let step = Rng.int rng 11 - 6 in
                     Stdlib.max 0 (Stdlib.min 100 (!load + step)));
                emit ~src:m ~var:load_name ~value:!load);
            samples at
          end
        in
        samples Sim_time.zero
      done);
  span "exec.run" (fun () ->
      run_id := Span.current sp;
      Exec.run exec ~until:dc.horizon);
  span "streaming_detector.finish" (fun () -> D.Streaming_detector.finish det);
  let updates =
    span "streaming_detector.updates" (fun () -> D.Streaming_detector.updates det)
  in
  let result =
    span "report.assemble" (fun () ->
        let s = D.Streaming_detector.stream det in
        let net = D.Streaming_detector.net det in
        {
          Sharded.sr_possibly = Streaming.possibly s;
          sr_definitely = Streaming.definitely s;
          sr_committed = Streaming.committed_cuts s;
          sr_observed = Streaming.events_observed s;
          sr_updates = List.length updates;
          sr_edges = D.Streaming_detector.edges det;
          sr_peak_live_cuts = Streaming.peak_live_cuts s;
          sr_peak_live_events = Streaming.peak_live_events s;
          sr_messages = Psn_network.Shard_net.sent net;
          sr_dropped = Psn_network.Shard_net.dropped net;
        })
  in
  (result, det)

(* The stream predicate at a cut, with unbound variables false: the
   semantics of [Modal.holds_of_expr ~init:[]], which [psn-sim detect]
   hands the post-hoc oracle.  That function rescans each source's
   writes from the start at every cut, quadratic over a 10^6 s run, so
   each source's latest values are tabulated per prefix instead. *)
let stream_holds (cfg : Sharded.stream_cfg) det =
  let per_src = Array.make cfg.s_monitors [] in
  List.iter
    (fun (u : D.Observation.update) -> per_src.(u.src) <- u :: per_src.(u.src))
    (D.Streaming_detector.updates det);
  let latest =
    Array.map
      (fun updates ->
        let seen = ref [] in
        List.sort (fun (a : D.Observation.update) b -> Int.compare a.seq b.seq) updates
        |> List.map (fun (u : D.Observation.update) ->
               seen := (u.var, u.value) :: List.remove_assoc u.var !seen;
               !seen)
        |> Array.of_list)
      per_src
  in
  let predicate = Sharded.stream_predicate cfg in
  fun (cut : int array) ->
    let env (v : Expr.var) =
      if v.loc < 0 || v.loc >= Array.length latest || cut.(v.loc) = 0 then None
      else List.assoc_opt v.name latest.(v.loc).(cut.(v.loc) - 1)
    in
    match Expr.eval_bool ~env predicate with
    | b -> b
    | exception Expr.Unbound_variable _ -> false

(* Replays a captured observe stream through a fresh streaming walk,
   one span per [observe]. *)
let replay sp ~cap ~holds c =
  Span.with_span sp "lattice.replay" @@ fun () ->
  let s = Streaming.create ~n:c.n ~cap ~holds () in
  let parent = Span.current sp in
  let stamp = Array.make c.n 0 in
  let i = ref 0 in
  while !i < c.len do
    let pid = c.data.(!i) in
    Array.blit c.data (!i + 1) stamp 0 c.n;
    let start = Span.now_ns () in
    Streaming.observe s ~pid ~stamp;
    Span.leaf sp ~parent "lattice.observe" ~start ~stop:(Span.now_ns ());
    i := !i + c.n + 1
  done;
  Span.with_span sp "lattice.finish" (fun () -> Streaming.finish s);
  s
