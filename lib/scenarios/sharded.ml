(* Shard-aware scenario workloads over the {!Psn_sim.Exec} substrate.

   Each workload partitions its processes into a fixed number of groups
   and drives every process's sense events from a per-entity RNG stream
   on its group's engine.  Two schedules feed those engines:

     - the hall and banking pre-schedule every sense event before
       [Exec.run] (a hall visitor's next door can lie in another group,
       and a successor posted there mid-window would break Exec's
       lookahead contract);
     - calm, stream and hospital run one self-rescheduling generator
       per entity ({!sense_walk}): the entity's one pending sense event
       schedules its successor on its own group's engine, before its
       body runs, so the queue holds one sense event per entity instead
       of the whole run.

   Substrate invariance.  Pre-scheduling fixes every sense event's time,
   draws and FIFO seq before [Exec.run], so scheduling order is the same
   on every substrate by construction.  A generator keeps the times and
   draws: gaps come from a second copy of the entity's stream, and the
   body's copy first skips every gap, so each body draws what it drew
   when all gaps were queued up front.  It keeps the order too: a sense
   event is scheduled ranked ({!Psn_sim.Engine.schedule_ranked_unit}),
   so among equal-time events it runs before every run-time event, and
   before the sense events of higher-numbered entities, which is where
   pre-scheduling put it.  The equal-time case that needs this is a
   sense event and a delivery to the same process at the same ns (in
   [stream], a strobe merged into the process's clock): the sense event
   runs first, as before, whether the delivery was posted before or
   after its predecessor fired, and at every K.  Nothing is scheduled on
   another shard.  All run-time randomness beyond the entity streams
   (message loss, delay) flows through the transport's per-source
   streams.

   The resulting {!Psn.Report.t} goes through the same scoring pipeline
   as {!Psn.Runner.run}: ground-truth intervals from the merged update
   stream, occurrence scoring with the configured tolerance.  The
   differential suite compares these reports verbatim between the
   single-queue oracle and sharded runs.

   Memory: the queue holds one pending sense event per generated entity
   (every sense event of the run for the pre-scheduled hall and
   banking); the ground truth is {!Psn_detection.Holdback}'s two-int log
   per update. *)

module Engine = Psn_sim.Engine
module Exec = Psn_sim.Exec
module Sim_time = Psn_sim.Sim_time
module Rng = Psn_util.Rng
module Expr = Psn_predicates.Expr
module Value = Psn_world.Value
module D = Psn_detection
module Sharded_detector = Psn_detection.Sharded_detector
module Streaming_detector = Psn_detection.Streaming_detector
module Shard_net = Psn_network.Shard_net

type detect_cfg = {
  groups : int;
  eps : Sim_time.t;
  hold : Sim_time.t;
  flush_period : Sim_time.t;
  delay : Psn_sim.Delay_model.t;
  loss : Psn_sim.Loss_model.t;
  horizon : Sim_time.t;
  tolerance : Sim_time.t;
  causal_stamps : bool;
  checker : Sharded_detector.checker;
}

let default_detect =
  {
    groups = 4;
    eps = Sim_time.of_ms 10;
    hold = Sim_time.of_ms 600;
    flush_period = Sim_time.of_ms 50;
    delay =
      Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 5)
        ~max:(Sim_time.of_ms 60);
    loss = Psn_sim.Loss_model.no_loss;
    horizon = Sim_time.of_sec 600;
    tolerance = Sim_time.of_sec 2;
    causal_stamps = false;
    checker = Sharded_detector.Compiled;
  }

(* Entity streams decorrelated from the transport's per-source streams
   (Shard_net mixes with a different odd constant). *)
let entity_rng exec tag =
  Rng.create
    ~seed:
      (Int64.add (Exec.seed exec)
         (Int64.mul (Int64.of_int (tag + 1)) 0xBF58476D1CE4E5B9L))
    ()

(* One self-rescheduling sense generator per entity [0 .. entities-1]:
   the entity's next sense event is a gap of mean [mean] seconds after
   its last (or after 0), on its group's engine, while before [horizon].
   [body e draws] builds entity [e]'s event body over its draw stream.

   The gaps come from one copy of the entity stream; [draws] is a second
   copy, first advanced past every gap the horizon admits and the one
   that crosses it, as if they had all been drawn up front.  Skipping
   keeps nothing.  Each fired event schedules its successor, ranked by
   the entity, before its body runs. *)
let sense_walk exec ~entities ~group_of ~mean ~horizon body =
  for e = 0 to entities - 1 do
    let gaps = entity_rng exec e and draws = entity_rng exec e in
    let after rng t =
      Sim_time.add t (Sim_time.of_sec_float (Rng.exponential rng ~mean))
    in
    let rec skip t =
      let at = after draws t in
      if Sim_time.( < ) at horizon then skip at
    in
    skip Sim_time.zero;
    let engine = Exec.engine exec ~group:(group_of e) in
    let fire = body e draws in
    let rec arm t =
      let at = after gaps t in
      if Sim_time.( < ) at horizon then
        Engine.schedule_ranked_unit engine at ~rank:e (fun () ->
            arm at;
            fire ())
    in
    arm Sim_time.zero
  done

(* Build detector + world, run, score — shared by every workload. *)
let execute (dc : detect_cfg) exec ?sinks ~n ~group_of ~predicate ~init
    ~populate () =
  let cfg =
    {
      Sharded_detector.n;
      groups = dc.groups;
      group_of;
      eps = dc.eps;
      hold = dc.hold;
      flush_period = dc.flush_period;
      causal_stamps = dc.causal_stamps;
    }
  in
  let det =
    Sharded_detector.create ~loss:dc.loss ?sinks ~checker:dc.checker exec ~cfg
      ~delay:dc.delay ~predicate ()
  in
  populate det;
  Exec.run exec ~until:dc.horizon;
  let updates = Sharded_detector.updates det in
  let truth =
    D.Ground_truth.intervals ~init ~updates ~predicate ~horizon:dc.horizon ()
  in
  let occurrences = Sharded_detector.occurrences det in
  let summary =
    D.Metrics.score ~tolerance:dc.tolerance ~policy:D.Metrics.As_positive
      ~truth ~detections:occurrences ()
  in
  let net = Sharded_detector.net det in
  {
    Psn.Report.summary;
    truth;
    occurrences;
    updates = List.length updates;
    messages = Shard_net.sent net;
    words = Shard_net.words net;
    dropped = Shard_net.dropped net;
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
  }

(* {2 Exhibition hall}

   The paper's §5 hall at shardable scale: [doors] badge sensors
   partitioned into [groups] strips of the hall, occupancy predicate
   Σ_i (x_i − y_i) > capacity.  Visitor itineraries are precomputed
   from per-visitor streams; each crossing becomes a sense event on the
   crossed door's group engine, so door counters stay group-local. *)

type hall_cfg = {
  doors : int;
  capacity : int;
  visitors : int;
  dwell_mean : float;
  detect : detect_cfg;
}

let hall_default =
  { doors = 64; capacity = 15; visitors = 128; dwell_mean = 60.0;
    detect = default_detect }

let hall_predicate cfg =
  let terms =
    List.init cfg.doors (fun i ->
        Expr.(var ~name:"x" ~loc:i -? var ~name:"y" ~loc:i))
  in
  Expr.(sum terms >? int cfg.capacity)

let hall_init cfg =
  List.concat
    (List.init cfg.doors (fun i ->
         [
           ({ Expr.name = "x"; loc = i }, Value.Int 0);
           ({ Expr.name = "y"; loc = i }, Value.Int 0);
         ]))

let hall ?(cfg = hall_default) ?sinks exec =
  if cfg.doors <= 0 then invalid_arg "Sharded.hall: doors";
  let dc = cfg.detect in
  let group_of pid = pid * dc.groups / cfg.doors in
  execute dc exec ?sinks ~n:cfg.doors ~group_of
    ~predicate:(hall_predicate cfg) ~init:(hall_init cfg)
    ~populate:(fun det ->
      let xs = Array.make cfg.doors 0 and ys = Array.make cfg.doors 0 in
      for v = 0 to cfg.visitors - 1 do
        let rng = entity_rng exec v in
        let rec walk t inside =
          let dwell = Rng.exponential rng ~mean:cfg.dwell_mean in
          let t' = Sim_time.add t (Sim_time.of_sec_float dwell) in
          if Sim_time.( < ) t' dc.horizon then begin
            let door = Rng.int rng cfg.doors in
            let engine = Exec.engine exec ~group:(group_of door) in
            if inside then
              Engine.schedule_at_unit engine t' (fun () ->
                  ys.(door) <- ys.(door) + 1;
                  Sharded_detector.emit det ~src:door ~var:"y"
                    ~value:ys.(door))
            else
              Engine.schedule_at_unit engine t' (fun () ->
                  xs.(door) <- xs.(door) + 1;
                  Sharded_detector.emit det ~src:door ~var:"x"
                    ~value:xs.(door));
            walk t' (not inside)
          end
        in
        walk Sim_time.zero false
      done)
    ()

(* {2 Banking}

   §6's timing-relation flavor restated as a quorum predicate over
   [tellers] terminals: each terminal pulses [busy] around sessions
   drawn from its own stream; the predicate fires when at least
   [quorum] terminals are busy at once — the hall's sum with 0/1
   variables and pulse (rather than counter) dynamics, which exercises
   predicate falling edges under sharding. *)

type banking_cfg = {
  tellers : int;
  quorum : int;
  sessions_per_hour : float;
  session_mean : float; (* seconds *)
  detect : detect_cfg;
}

let banking_default =
  { tellers = 12; quorum = 4; sessions_per_hour = 180.0; session_mean = 45.0;
    detect = default_detect }

let banking_predicate cfg =
  let terms =
    List.init cfg.tellers (fun i -> Expr.(var ~name:"busy" ~loc:i))
  in
  Expr.(sum terms >=? int cfg.quorum)

let banking_init cfg =
  List.init cfg.tellers (fun i ->
      ({ Expr.name = "busy"; loc = i }, Value.Int 0))

let banking ?(cfg = banking_default) ?sinks exec =
  if cfg.tellers <= 0 then invalid_arg "Sharded.banking: tellers";
  let dc = cfg.detect in
  let group_of pid = pid * dc.groups / cfg.tellers in
  execute dc exec ?sinks ~n:cfg.tellers ~group_of
    ~predicate:(banking_predicate cfg) ~init:(banking_init cfg)
    ~populate:(fun det ->
      for teller = 0 to cfg.tellers - 1 do
        let rng = entity_rng exec teller in
        let engine = Exec.engine exec ~group:(group_of teller) in
        let rec sessions t =
          let gap =
            Rng.exponential rng ~mean:(3600.0 /. cfg.sessions_per_hour)
          in
          let start = Sim_time.add t (Sim_time.of_sec_float gap) in
          let len = Rng.exponential rng ~mean:cfg.session_mean in
          let stop = Sim_time.add start (Sim_time.of_sec_float len) in
          if Sim_time.( < ) start dc.horizon then begin
            Engine.schedule_at_unit engine start (fun () ->
                Sharded_detector.emit det ~src:teller ~var:"busy" ~value:1);
            if Sim_time.( < ) stop dc.horizon then
              Engine.schedule_at_unit engine stop (fun () ->
                  Sharded_detector.emit det ~src:teller ~var:"busy" ~value:0);
            sessions stop
          end
        in
        sessions Sim_time.zero
      done)
    ()

(* {2 Hospital}

   Ward monitors sampling a bounded vital-sign random walk on per-ward
   periods; the alarm predicate is an elevated ward-average — a
   relational predicate whose every update moves the sum, stressing the
   checker's apply path harder than the pulse workloads. *)

type hospital_cfg = {
  wards : int;
  sample_period : float; (* mean seconds between samples *)
  threshold : int;       (* alarm when Σ vitals > wards * threshold *)
  detect : detect_cfg;
}

let hospital_default =
  { wards = 16; sample_period = 5.0; threshold = 110; detect = default_detect }

let hospital_predicate cfg =
  let terms =
    List.init cfg.wards (fun i -> Expr.(var ~name:"vital" ~loc:i))
  in
  Expr.(sum terms >? int (cfg.wards * cfg.threshold))

let hospital_init cfg =
  List.init cfg.wards (fun i ->
      ({ Expr.name = "vital"; loc = i }, Value.Int 100))

(* {2 Calm}

   The conjunctive counterpart of the relational workloads: [monitors]
   processes each random-walk a load value with downward drift and
   occasional spikes, and the predicate is ∧_i (load_i <= limit) — a
   rising edge means "every monitor calm again".  The [Compiled]
   checker answers it from its conjunct count, re-running only the
   conjunct an update reads; the workload drives that path through the
   differential and cross-backend suites. *)

type calm_cfg = {
  monitors : int;
  limit : int;
  sample_period : float; (* mean seconds between samples *)
  detect : detect_cfg;
}

let calm_default =
  { monitors = 12; limit = 60; sample_period = 5.0; detect = default_detect }

let calm_predicate cfg =
  let terms =
    List.init cfg.monitors (fun i ->
        Expr.(var ~name:"load" ~loc:i <=? int cfg.limit))
  in
  match terms with
  | [] -> invalid_arg "Sharded.calm_predicate: monitors"
  | first :: rest -> List.fold_left Expr.( &&& ) first rest

let calm_init cfg =
  List.init cfg.monitors (fun i ->
      ({ Expr.name = "load"; loc = i }, Value.Int 80))

(* Every monitor's load samples, from its {!sense_walk} generator;
   [emit] publishes each sample. *)
let calm_walk exec ~monitors ~group_of ~sample_period ~horizon emit =
  sense_walk exec ~entities:monitors ~group_of ~mean:sample_period ~horizon
    (fun m rng ->
      let load = ref 80 in
      fun () ->
        (* Downward-drifting walk (step in -6 .. +4) with rare spikes, so
           the all-calm conjunction keeps flipping: drift pulls every
           monitor under [limit], a spike breaks one conjunct, the drift
           repairs it. *)
        let spiked = Rng.int rng 25 = 0 in
        load :=
          (if spiked then 70 + Rng.int rng 30
           else
             let step = Rng.int rng 11 - 6 in
             Stdlib.max 0 (Stdlib.min 100 (!load + step)));
        emit ~src:m ~var:"load" ~value:!load)

let calm ?(cfg = calm_default) ?sinks exec =
  if cfg.monitors <= 0 then invalid_arg "Sharded.calm: monitors";
  let dc = cfg.detect in
  let group_of pid = pid * dc.groups / cfg.monitors in
  execute dc exec ?sinks ~n:cfg.monitors ~group_of
    ~predicate:(calm_predicate cfg) ~init:(calm_init cfg)
    ~populate:(fun det ->
      calm_walk exec ~monitors:cfg.monitors ~group_of
        ~sample_period:cfg.sample_period ~horizon:dc.horizon
        (Sharded_detector.emit det))
    ()

(* {2 Streamed modal detection}

   The calm walk again, but scored through the streaming frontier
   lattice instead of the hold-back consensus checker: every sample
   strobes a vector stamp, the checker feeds the walk online, and the
   run yields Possibly/Definitely verdicts with the slab-occupancy
   evidence.  Kept to a handful of monitors — the cut lattice is
   exponential in concurrency, and this workload exists to pin
   bounded-slab behaviour and substrate invariance, not scale in n. *)

type stream_cfg = {
  s_monitors : int;
  s_limit : int;
  s_sample_period : float; (* mean seconds between samples *)
  s_cap : int;             (* live-slab width bound *)
  s_detect : detect_cfg;
}

let stream_default =
  {
    s_monitors = 3;
    s_limit = 60;
    s_sample_period = 5.0;
    s_cap = 200_000;
    s_detect =
      { default_detect with groups = 2; horizon = Sim_time.of_sec 120 };
  }

let stream_predicate cfg =
  let terms =
    List.init cfg.s_monitors (fun i ->
        Expr.(var ~name:"load" ~loc:i <=? int cfg.s_limit))
  in
  match terms with
  | [] -> invalid_arg "Sharded.stream_predicate: monitors"
  | first :: rest -> List.fold_left Expr.( &&& ) first rest

type stream_result = {
  sr_possibly : bool option;
  sr_definitely : bool option;
  sr_committed : Psn_lattice.Packed.verdict;
  sr_observed : int;
  sr_updates : int;
  sr_edges : Streaming_detector.edge list;
  sr_peak_live_cuts : int;
  sr_peak_live_events : int;
  sr_messages : int;
  sr_dropped : int;
}

let stream ?(cfg = stream_default) ?sinks ?on_observe exec =
  if cfg.s_monitors <= 0 then invalid_arg "Sharded.stream: monitors";
  let dc = cfg.s_detect in
  let group_of pid = pid * dc.groups / cfg.s_monitors in
  let dcfg =
    {
      Streaming_detector.n = cfg.s_monitors;
      groups = dc.groups;
      group_of;
      eps = dc.eps;
      hold = dc.hold;
      flush_period = dc.flush_period;
      cap = cfg.s_cap;
    }
  in
  let det =
    Streaming_detector.create ~loss:dc.loss ?sinks ?on_observe exec
      ~cfg:dcfg ~delay:dc.delay ~predicate:(stream_predicate cfg) ()
  in
  calm_walk exec ~monitors:cfg.s_monitors ~group_of
    ~sample_period:cfg.s_sample_period ~horizon:dc.horizon
    (Streaming_detector.emit det);
  Exec.run exec ~until:dc.horizon;
  Streaming_detector.finish det;
  let s = Streaming_detector.stream det in
  let net = Streaming_detector.net det in
  ( {
      sr_possibly = Psn_lattice.Streaming.possibly s;
      sr_definitely = Psn_lattice.Streaming.definitely s;
      sr_committed = Psn_lattice.Streaming.committed_cuts s;
      sr_observed = Psn_lattice.Streaming.events_observed s;
      sr_updates = Streaming_detector.update_count det;
      sr_edges = Streaming_detector.edges det;
      sr_peak_live_cuts = Psn_lattice.Streaming.peak_live_cuts s;
      sr_peak_live_events = Psn_lattice.Streaming.peak_live_events s;
      sr_messages = Shard_net.sent net;
      sr_dropped = Shard_net.dropped net;
    },
    det )

let hospital ?(cfg = hospital_default) ?sinks exec =
  if cfg.wards <= 0 then invalid_arg "Sharded.hospital: wards";
  let dc = cfg.detect in
  let group_of pid = pid * dc.groups / cfg.wards in
  execute dc exec ?sinks ~n:cfg.wards ~group_of
    ~predicate:(hospital_predicate cfg) ~init:(hospital_init cfg)
    ~populate:(fun det ->
      sense_walk exec ~entities:cfg.wards ~group_of ~mean:cfg.sample_period
        ~horizon:dc.horizon (fun ward rng ->
          let vital = ref 100 in
          fun () ->
            let step = Rng.int rng 11 - 5 in
            vital := Stdlib.max 50 (Stdlib.min 160 (!vital + step));
            Sharded_detector.emit det ~src:ward ~var:"vital" ~value:!vital))
    ()
