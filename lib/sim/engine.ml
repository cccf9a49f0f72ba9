(* Discrete-event simulation core.

   Events are closures keyed by (time, sequence number); the sequence
   number makes simultaneous events fire in scheduling order, which keeps
   runs fully deterministic.  Cancellation is lazy: a cancelled handle's
   closure is skipped when popped.

   The queue is the monomorphic [Event_queue] (flat int key planes, no
   comparator closure, no option on pop).  Two scheduling paths feed it:
   [schedule_at]/[schedule_after] allocate a cancellation handle, while
   the [_unit] variants are the fire-and-forget fast path — no handle,
   the payload is the caller's closure wrapped in a single [Fast]
   constructor.  A handle tracks whether its event is pending, fired, or
   cancelled, so cancelling after the fact is a no-op and the cancelled
   metric counts real cancellations only.

   Observability: the engine owns the run's metrics registry and an
   optional trace sink (picked up from the creating domain's
   [Psn_obs.Trace.default], so a CLI flag enables tracing without
   threading a value through every constructor).  The tracer branch is hoisted out of the
   [run] drain loop: the untraced loop never tests the option, so with
   no sink installed the per-event overhead is zero rather than a branch. *)

module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics

type hstate = Pending | Fired | Cancelled

type handle = { mutable state : hstate; action : unit -> unit; owner : t }

and ev =
  | Fast of (unit -> unit)  (* no-cancel fast path *)
  | Tracked of handle       (* one block: handle doubles as the payload *)

and t = {
  mutable now : Sim_time.t;
  mutable processed : int;
  queue : ev Event_queue.t;
  rng : Psn_util.Rng.t;
  aux_rng : Psn_util.Rng.t;
      (* independent stream for scenario/world randomness, so protocol
         construction (which draws from [rng]) cannot perturb the world:
         the same seed gives the same world under every clock kind *)
  tracer : Trace.sink option;
  mutable limit_ns : int;
      (* inclusive horizon of the [run] in progress; [lower_horizon]
         may pull it in while the drain loop runs *)
  timeline : Metrics.timeline option;
  metrics : Metrics.t;
  c_scheduled : Metrics.counter;
  c_fired : Metrics.counter;
  c_cancelled : Metrics.counter;
}

let noop () = ()

let now t = t.now
let rng t = t.rng
let scenario_rng t = t.aux_rng
let events_processed t = t.processed
let pending t = Event_queue.length t.queue

let next_time_ns t =
  if Event_queue.is_empty t.queue then max_int
  else Event_queue.min_time_ns t.queue

let tracer t = t.tracer
let metrics t = t.metrics

let[@inline] trace_schedule t time =
  match t.tracer with
  | Some s ->
      Trace.emit s ~time:t.now ~pid:Trace.engine_pid
        (Trace.Engine_schedule { at = Sim_time.to_ns time })
  | None -> ()

let schedule_at t time action =
  if Sim_time.(time < t.now) then
    invalid_arg "Engine.schedule_at: time is in the past";
  let h = { state = Pending; action; owner = t } in
  Metrics.tick t.c_scheduled;
  trace_schedule t time;
  Event_queue.add t.queue ~time_ns:(Sim_time.to_ns time) (Tracked h);
  h

let schedule_after t delay action =
  if Sim_time.is_negative delay then
    invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t (Sim_time.add t.now delay) action

let schedule_at_unit t time action =
  if Sim_time.(time < t.now) then
    invalid_arg "Engine.schedule_at_unit: time is in the past";
  Metrics.tick t.c_scheduled;
  trace_schedule t time;
  Event_queue.add t.queue ~time_ns:(Sim_time.to_ns time) (Fast action)

let schedule_after_unit t delay action =
  if Sim_time.is_negative delay then
    invalid_arg "Engine.schedule_after_unit: negative delay";
  schedule_at_unit t (Sim_time.add t.now delay) action

let schedule_ranked_unit t time ~rank action =
  if Sim_time.(time < t.now) then
    invalid_arg "Engine.schedule_ranked_unit: time is in the past";
  Event_queue.add_ranked t.queue ~time_ns:(Sim_time.to_ns time) ~rank
    (Fast action);
  Metrics.tick t.c_scheduled;
  trace_schedule t time

let create ?(seed = 42L) ?tracer ?timeline ?(use_default_obs = true) () =
  let metrics = Metrics.create () in
  let timeline =
    match timeline with
    | Some _ as tl -> tl
    | None -> if use_default_obs then Metrics.default_timeline () else None
  in
  let t =
    {
      now = Sim_time.zero;
      processed = 0;
      queue = Event_queue.create ~dummy:(Fast noop) ();
      rng = Psn_util.Rng.create ~seed ();
      aux_rng = Psn_util.Rng.create ~seed:(Int64.add seed 0x5DEECE66DL) ();
      tracer =
        (match tracer with
        | Some _ as s -> s
        | None -> if use_default_obs then Trace.default () else None);
      limit_ns = max_int;
      timeline;
      metrics;
      c_scheduled = Metrics.counter metrics "engine.scheduled";
      c_fired = Metrics.counter metrics "engine.fired";
      c_cancelled = Metrics.counter metrics "engine.cancelled";
    }
  in
  (* Timeline sampler: a self-rescheduling event that snapshots the
     registry every period of simulated time.  It re-arms only while
     other events remain queued, so a horizonless [run] still drains; the
     [engine.queue_depth] gauge is registered only here, keeping default
     report snapshots identical whether or not a timeline is in play. *)
  (match t.timeline with
  | None -> ()
  | Some tl ->
      let depth = Metrics.gauge metrics "engine.queue_depth" in
      let period = Metrics.timeline_period_ns tl in
      let rec sample () =
        Metrics.set depth (float_of_int (Event_queue.length t.queue));
        Metrics.timeline_record tl ~time_ns:(Sim_time.to_ns t.now) t.metrics;
        if not (Event_queue.is_empty t.queue) then
          schedule_after_unit t (Sim_time.of_ns period) sample
      in
      schedule_at_unit t Sim_time.zero sample);
  t

let timeline t = t.timeline

let cancel h =
  match h.state with
  | Pending ->
      h.state <- Cancelled;
      Metrics.tick h.owner.c_cancelled;
      (match h.owner.tracer with
      | Some s ->
          Trace.emit s ~time:h.owner.now ~pid:Trace.engine_pid
            Trace.Engine_cancel
      | None -> ())
  | Fired | Cancelled -> ()

let cancelled h = match h.state with Cancelled -> true | Pending | Fired -> false

(* Run one event; [false] when the queue is empty.  [Sim_time.t] is an
   int of nanoseconds, so the popped key assigns to [now] directly. *)
let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    let tns = Event_queue.min_time_ns t.queue in
    let ev = Event_queue.pop_exn t.queue in
    t.now <- tns;
    (match ev with
    | Fast action ->
        t.processed <- t.processed + 1;
        Metrics.tick t.c_fired;
        (match t.tracer with
        | Some s ->
            Trace.emit s ~time:t.now ~pid:Trace.engine_pid Trace.Engine_fire
        | None -> ());
        action ()
    | Tracked h -> (
        match h.state with
        | Pending ->
            h.state <- Fired;
            t.processed <- t.processed + 1;
            Metrics.tick t.c_fired;
            (match t.tracer with
            | Some s ->
                Trace.emit s ~time:t.now ~pid:Trace.engine_pid Trace.Engine_fire
            | None -> ());
            h.action ()
        | Fired | Cancelled -> ()));
    true
  end

(* The two drain loops differ only in the per-fire trace emission; the
   untraced one is the hot loop of every experiment and never tests the
   tracer option.  Both read the horizon from [t.limit_ns] before every
   event, so an action may pull it in ([lower_horizon]); [max_int]
   means "no horizon". *)

let drain_untraced t =
  let q = t.queue in
  let running = ref true in
  while !running do
    if Event_queue.is_empty q then running := false
    else begin
      let tns = Event_queue.min_time_ns q in
      if tns > t.limit_ns then running := false
      else begin
        t.now <- tns;
        match Event_queue.pop_exn q with
        | Fast action ->
            t.processed <- t.processed + 1;
            Metrics.tick t.c_fired;
            action ()
        | Tracked h -> (
            match h.state with
            | Pending ->
                h.state <- Fired;
                t.processed <- t.processed + 1;
                Metrics.tick t.c_fired;
                h.action ()
            | Fired | Cancelled -> ())
      end
    end
  done

(* Per-event execution spans live only in the traced loop — [step] and
   the untraced loop stay span-free.  Executing an action never advances
   [t.now] (only popping does), so begin and end share the timestamp; the
   span still brackets everything the event emitted, which is what the
   exporters nest under it. *)
let exec_begin = Trace.Span_begin { name = "engine.exec"; lane = Trace.lane_sync }
let exec_end = Trace.Span_end { name = "engine.exec"; lane = Trace.lane_sync }

let drain_traced t s =
  let q = t.queue in
  let running = ref true in
  while !running do
    if Event_queue.is_empty q then running := false
    else begin
      let tns = Event_queue.min_time_ns q in
      if tns > t.limit_ns then running := false
      else begin
        t.now <- tns;
        match Event_queue.pop_exn q with
        | Fast action ->
            t.processed <- t.processed + 1;
            Metrics.tick t.c_fired;
            Trace.emit s ~time:t.now ~pid:Trace.engine_pid Trace.Engine_fire;
            Trace.emit s ~time:t.now ~pid:Trace.engine_pid exec_begin;
            action ();
            Trace.emit s ~time:t.now ~pid:Trace.engine_pid exec_end
        | Tracked h -> (
            match h.state with
            | Pending ->
                h.state <- Fired;
                t.processed <- t.processed + 1;
                Metrics.tick t.c_fired;
                Trace.emit s ~time:t.now ~pid:Trace.engine_pid Trace.Engine_fire;
                Trace.emit s ~time:t.now ~pid:Trace.engine_pid exec_begin;
                h.action ();
                Trace.emit s ~time:t.now ~pid:Trace.engine_pid exec_end
            | Fired | Cancelled -> ())
      end
    end
  done

let run ?until t =
  t.limit_ns <-
    (match until with None -> max_int | Some limit -> Sim_time.to_ns limit);
  (match t.tracer with
  | None -> drain_untraced t
  | Some s -> drain_traced t s);
  match until with
  | Some _ when t.now < t.limit_ns ->
      (* Advance the clock to the horizon, lowered or not, so observers
         agree on the final time; any still-pending events are strictly
         beyond it, so the clock invariant is preserved. *)
      t.now <- t.limit_ns
  | _ -> ()

let lower_horizon t time =
  let ns = Sim_time.to_ns time in
  if ns < t.limit_ns then t.limit_ns <- ns

(* Schedule [action] every [period] until it returns [false] or [until]
   (when given) is passed.  Returns a handle cancelling future firings.
   The per-firing events go through the fire-and-forget fast path; the
   master handle alone carries the cancellation state. *)
let schedule_periodic ?until t ~start ~period action =
  if Sim_time.(period <= Sim_time.zero) then
    invalid_arg "Engine.schedule_periodic: period must be positive";
  let master = { state = Pending; action = noop; owner = t } in
  let rec fire () =
    match master.state with
    | Cancelled -> ()
    | Pending | Fired -> begin
      let keep_going = action () in
      let next = Sim_time.add t.now period in
      let within_horizon =
        match until with None -> true | Some limit -> Sim_time.(next <= limit)
      in
      if keep_going && within_horizon then schedule_at_unit t next fire
    end
  in
  let within_horizon =
    match until with None -> true | Some limit -> Sim_time.(start <= limit)
  in
  if within_horizon then schedule_at_unit t start fire;
  master
