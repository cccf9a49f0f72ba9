(* Online Possibly/Definitely checker: strobe-vector stamping at the
   sources, hold-back reordering at the checker, and a streaming
   frontier walk ([Psn_lattice.Streaming]) instead of a post-hoc lattice
   enumeration.  See the .mli for the determinism and liveness
   arguments.

   Group locality, for every mutable piece (the rule that makes the
   order of a round's turns unobservable):

     - per-group stamp planes, their delivery rings and peak counters
       are written only by their group's sources; a strobe receiver in
       another group, or the checker, reads a foreign plane stamp only
       at delivery, at least a lookahead after the write, and a written
       stamp never changes while it is live;
     - the reorder rings, value histories, and the walk itself are
       written only by checker events (shard 0); the front end's
       pieces follow {!Holdback}'s rule.

   Per-source sequence order: the arena's (stamp, src, seq) batch order
   is per-source monotone *within* a flush (synced clocks are pure and
   monotone in true time), but random delays can push seq k past a flush
   cutoff that seq k+1 beat — so arrivals park in a per-source reorder
   ring and feed the walk strictly in sequence order, whatever the
   flush boundaries did.  Both the batch key and the sequence numbers
   are substrate-invariant, so the observe order is too.

   Memory: bounded are the walk's live slab (pinned by
   [Streaming.peak_live_cuts]), the value-history rings and reorder
   rings, which track only the live window [base .. applied] per source
   and reclaim behind {!Psn_lattice.Streaming.base_component} (a
   reorder ring stays bounded past a lost update only under a delay
   bound, see [truncate_lost]), the hold-back arena, the engine queues
   (traffic in flight), and the stamp planes.  A plane row is read only at
   its deliveries: the checker copies the stamp into the reorder slot
   when the unicast arrives, and each strobe receiver merges it on
   arrival.  [emit] records the latest delivery time the transport
   sampled for each row, and at the group's next emit frees the oldest
   rows whose latest delivery lies more than a lookahead in the past,
   so a plane holds the rows still in flight ([peak_plane_rows]; 4 on
   [stream_1m]) and slides them down instead of growing.  Only
   {!Holdback}'s ground-truth log grows with the run, two ints (16 B)
   per update. *)

module Engine = Psn_sim.Engine
module Exec = Psn_sim.Exec
module Sim_time = Psn_sim.Sim_time
module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics
module Expr = Psn_predicates.Expr
module Value = Psn_world.Value
module Strobe_vector = Psn_clocks.Strobe_vector
module Stamp_plane = Psn_clocks.Stamp_plane
module Shard_net = Psn_network.Shard_net
module Streaming = Psn_lattice.Streaming

type cfg = {
  n : int;
  groups : int;
  group_of : int -> int;
  eps : Sim_time.t;
  hold : Sim_time.t;
  flush_period : Sim_time.t;
  cap : int;
}

type edge = {
  edge : Streaming.edge;
  at : Sim_time.t;
  trigger : Observation.update option;
}

(* Reorder-ring lanes, stride [4 + n], indexed [seq mod cap]:
   0 = value, 1 = var_idx, 2 = sense, 3 = ready flag (written at flush
   apply), 4 .. 3 + n = the strobe stamp (copied from its group's plane
   at delivery). *)
let rr_stamp = 4
let rr_initial = 16
let vh_initial = 8

(* The decision context for [on_edge], set before each observe: the
   applied update, or [src] = -1 for edges decided at [finish]. *)
type ctx = {
  mutable now : Sim_time.t;
  mutable sense : int;
  mutable src : int;
  mutable seq : int;
  mutable var_idx : int;
  mutable value : int;
}

type t = {
  cfg : cfg;
  exec : Exec.t;
  hb : Holdback.t;
  group : int array;                    (* sensor pid -> group *)
  svclocks : Strobe_vector.t array;
  planes : Stamp_plane.t array;         (* per group, width n *)
  lookahead : int;                      (* ns; 0 on the single queue *)
  (* Per group: the latest delivery time (ns, -1 when every send was
     dropped) of each live plane row, oldest first. *)
  due : int Queue.t array;
  peak_rows : int array;                (* per group: most live rows *)
  sinks : Trace.sink array option;
  stream : Streaming.t;
  scratch : int array;                  (* stamp decode buffer, width n *)
  (* Per-source reorder rings (checker-local). *)
  rr_stride : int;
  rr_buf : int array array;
  rr_cap : int array;                   (* in entries *)
  rr_next : int array;                  (* next seq to feed *)
  rr_max : int array;                   (* highest seq delivered; -1 none *)
  rr_ready : int array;                 (* applied entries not yet fed *)
  (* Lost-update detection, under a Δ-bounded delay model only. *)
  lost_after : int;                     (* hold + Δ in ns; -1 unbounded *)
  truncated : bool array;               (* per source: its ring is gone *)
  mutable dropped : int;                (* arrivals truncation discarded *)
  (* Per-source value histories: entry k = cumulative slot values after
     k updates; entry 0 = unbound sentinel. *)
  vh_buf : int array array;
  vh_cap : int array;                   (* in entries *)
  ctx : ctx;
  edges : edge list ref;                (* newest first *)
  on_observe : (pid:int -> stamp:int array -> unit) option;
  mutable finished : bool;
}

(* -- value-history rings ------------------------------------------- *)

let vh_entry cap k = (k mod cap) * Holdback.max_vars

(* Append entry [seq + 1] = entry [seq] with [var_idx := value].  The
   live window at any future [holds] call is within
   [base_component .. seq + 1] (the walk's base only advances), so
   capacity need only cover it as of now. *)
let vh_write t ~src ~seq ~var_idx ~value =
  let base = Streaming.base_component t.stream src in
  let need = seq + 2 - base in
  if need > t.vh_cap.(src) then begin
    let cap = ref t.vh_cap.(src) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Array.make (!cap * Holdback.max_vars) min_int in
    let ob = t.vh_buf.(src) and ocap = t.vh_cap.(src) in
    for k = base to seq do
      Array.blit ob (vh_entry ocap k) nb (vh_entry !cap k) Holdback.max_vars
    done;
    t.vh_buf.(src) <- nb;
    t.vh_cap.(src) <- !cap
  end;
  let b = t.vh_buf.(src) and cap = t.vh_cap.(src) in
  let from = vh_entry cap seq and into = vh_entry cap (seq + 1) in
  Array.blit b from b into Holdback.max_vars;
  b.(into + var_idx) <- value

(* -- reorder rings -------------------------------------------------- *)

(* Make room so every live seq in [rr_next .. max seq] maps to its own
   slot; grow re-places the live span. *)
let rr_ensure t ~src ~seq =
  if seq - t.rr_next.(src) >= t.rr_cap.(src) then begin
    let cap = ref t.rr_cap.(src) in
    while seq - t.rr_next.(src) >= !cap do
      cap := !cap * 2
    done;
    let stride = t.rr_stride in
    let nb = Array.make (!cap * stride) 0 in
    let ob = t.rr_buf.(src) and ocap = t.rr_cap.(src) in
    for k = t.rr_next.(src) to t.rr_max.(src) do
      Array.blit ob (k mod ocap * stride) nb (k mod !cap * stride) stride
    done;
    t.rr_buf.(src) <- nb;
    t.rr_cap.(src) <- !cap
  end

(* -- plane release -------------------------------------------------- *)

(* A group's row is read only at its deliveries: by the checker, which
   copies it into a reorder slot, and by each strobe receiver.  [Exec]
   lets no shard's clock pass [d + lookahead] while a delivery at [d] is
   still pending anywhere, so once a row's latest delivery lies more
   than a lookahead before the group's clock, every delivery of the row
   has run, on every shard, and the row can go; on the single queue
   (lookahead 0) a delivery strictly before [now] has run.  Rows go
   oldest first, so one late row holds back the younger ones. *)
let release_delivered t g ~now =
  let due = t.due.(g) and horizon = now - t.lookahead in
  let k = ref 0 in
  while (not (Queue.is_empty due)) && Queue.peek due < horizon do
    ignore (Queue.pop due : int);
    incr k
  done;
  if !k > 0 then begin
    let plane = t.planes.(g) in
    Stamp_plane.release plane
      ~below:(Stamp_plane.floor plane + (!k * t.cfg.n))
  end

(* -- the feed path -------------------------------------------------- *)

let feed t ~now ~src ~seq buf off =
  let value = buf.(off) and var_idx = buf.(off + 1) in
  vh_write t ~src ~seq ~var_idx ~value;
  let c = t.ctx in
  c.now <- now;
  c.sense <- buf.(off + 2);
  c.src <- src;
  c.seq <- seq;
  c.var_idx <- var_idx;
  c.value <- value;
  for j = 0 to t.cfg.n - 1 do
    t.scratch.(j) <- buf.(off + rr_stamp + j)
  done;
  (match t.on_observe with
  | Some f -> f ~pid:src ~stamp:t.scratch
  | None -> ());
  Streaming.observe t.stream ~pid:src ~stamp:t.scratch

let rec drain t ~now ~src =
  let nx = t.rr_next.(src) in
  if nx <= t.rr_max.(src) then begin
    let buf = t.rr_buf.(src) in
    let off = nx mod t.rr_cap.(src) * t.rr_stride in
    if buf.(off + 3) = 1 then begin
      buf.(off + 3) <- 0;
      t.rr_next.(src) <- nx + 1;
      t.rr_ready.(src) <- t.rr_ready.(src) - 1;
      feed t ~now ~src ~seq:nx buf off;
      drain t ~now ~src
    end
  end

let trace_commit t ~now =
  match t.sinks with
  | Some s ->
      let committed =
        match Streaming.committed_cuts t.stream with
        | Psn_lattice.Packed.Exact c | Psn_lattice.Packed.At_least c -> c
      in
      Trace.emit s.(0) ~time:now ~pid:t.cfg.n
        (Trace.Lattice_commit
           {
             level = Streaming.committed_level t.stream;
             live = Streaming.live_cuts t.stream;
             committed;
           })
  | None -> ()

(* Apply one ready batch from the pending arena: mark each entry's ring
   slot ready in (stamp, src, seq) order, draining its source's ring as
   it goes.  Both orders are substrate-invariant. *)
let apply_batch t ~now m =
  let pend = Holdback.pending t.hb in
  for i = 0 to m - 1 do
    let src = Pending_arena.src pend i in
    let seq = Pending_arena.seq pend i in
    let var_idx = Pending_arena.var_idx pend i in
    (match t.sinks with
    | Some s ->
        Trace.emit s.(0) ~time:now ~pid:t.cfg.n
          (Trace.Detector_update
             { var = Holdback.var_name t.hb ~src ~var_idx; seq })
    | None -> ());
    if t.truncated.(src) then t.dropped <- t.dropped + 1
    else begin
      let buf = t.rr_buf.(src) in
      let off = seq mod t.rr_cap.(src) * t.rr_stride in
      buf.(off) <- Pending_arena.value pend i;
      buf.(off + 1) <- var_idx;
      buf.(off + 2) <- Pending_arena.sense pend i;
      buf.(off + 3) <- 1;
      t.rr_ready.(src) <- t.rr_ready.(src) + 1;
      drain t ~now ~src
    end
  done;
  if m > 0 then trace_commit t ~now

(* After a flush at [now], under a delay bound Δ: a source whose next
   sequence number is missing while an applied update of it, sensed at
   [s <= now - hold - Δ], waits behind the gap has lost that update.
   Every earlier update was sensed by [s], so it arrived by [s + Δ <=
   now - hold] and this flush or an earlier one took it.  The gap never
   fills and nothing of the source reaches the walk again, so its ring
   goes and its later arrivals are dropped as they come.  The walk sees
   exactly what it would have seen with the ring parked forever. *)
let truncate_lost t ~now =
  if t.lost_after >= 0 then
    for src = 0 to t.cfg.n - 1 do
      if t.rr_ready.(src) > 0 then begin
        (* The oldest parked update: the first ready slot past the gap. *)
        let buf = t.rr_buf.(src) and cap = t.rr_cap.(src) in
        let k = ref (t.rr_next.(src) + 1) in
        while buf.((!k mod cap * t.rr_stride) + 3) = 0 do
          incr k
        done;
        let sense = buf.((!k mod cap * t.rr_stride) + 2) in
        if sense <= Sim_time.to_ns now - t.lost_after then begin
          t.truncated.(src) <- true;
          t.dropped <- t.dropped + t.rr_ready.(src);
          t.rr_ready.(src) <- 0;
          t.rr_buf.(src) <- [||]
        end
      end
    done

let create ?loss ?sinks ?on_observe exec ~cfg ~delay ~predicate () =
  Psn_obs.Profile.phase "detector.setup" @@ fun () ->
  let hb =
    Holdback.create ?loss ?sinks exec ~who:"Streaming_detector"
      ~label:"stream_detector" ~updates_metric:"stream_detector.updates"
      ~n:cfg.n ~groups:cfg.groups ~group_of:cfg.group_of ~eps:cfg.eps
      ~hold:cfg.hold ~flush_period:cfg.flush_period ~delay
  in
  let n = cfg.n in
  let planes = Array.init cfg.groups (fun _ -> Stamp_plane.create ~n ()) in
  let svclocks = Array.init n (fun pid -> Strobe_vector.create ~n ~me:pid) in
  let c_edges =
    Metrics.counter
      (Engine.metrics (Exec.engine exec ~group:0))
      "stream_detector.edges"
  in
  (* The walk's closures are built over these cells; [t] closes the
     knot afterwards. *)
  let vh_buf =
    Array.init n (fun _ -> Array.make (vh_initial * Holdback.max_vars) min_int)
  and vh_cap = Array.make n vh_initial in
  let cur_cut = ref [||] in
  let ctx =
    { now = Sim_time.zero; sense = 0; src = -1; seq = 0; var_idx = 0; value = 0 }
  and edges = ref [] in
  let sinks_opt = sinks in
  (* One lookup closure per detector (not per cut): located variable ->
     value-history entry at the cut's per-process count. *)
  let env_fn (v : Expr.var) =
    let loc = v.Expr.loc in
    let vi = Holdback.var_slot hb ~src:loc v.Expr.name in
    if vi < 0 then None
    else begin
      let value = vh_buf.(loc).(vh_entry vh_cap.(loc) !cur_cut.(loc) + vi) in
      if value = min_int then None else Some (Value.Int value)
    end
  in
  let holds cut =
    cur_cut := cut;
    Expr.holds ~env:env_fn predicate
  in
  (* The trigger record is built here, for the few updates that decide
     an edge, not at every feed. *)
  let on_edge e =
    Metrics.tick c_edges;
    let trigger =
      if ctx.src < 0 then None
      else
        Some
          {
            Observation.src = ctx.src;
            var = Holdback.var_name hb ~src:ctx.src ~var_idx:ctx.var_idx;
            value = Value.Int ctx.value;
            seq = ctx.seq;
            sense_time = Sim_time.of_ns ctx.sense;
          }
    in
    edges := { edge = e; at = ctx.now; trigger } :: !edges;
    match sinks_opt with
    | Some s ->
        let verdict =
          match e with
          | Streaming.Possibly_holds _ -> "possibly"
          | Streaming.Definitely_holds _ -> "definitely"
          | Streaming.Possibly_fails -> "possibly_fails"
          | Streaming.Definitely_fails -> "definitely_fails"
        in
        Trace.emit s.(0) ~time:ctx.now ~pid:n
          (Trace.Detector_occurrence
             { verdict; window_ns = Sim_time.to_ns ctx.now - ctx.sense })
    | None -> ()
  in
  let stream = Streaming.create ~n ~cap:cfg.cap ~on_edge ~holds () in
  let rr_stride = rr_stamp + n in
  let t =
    {
      cfg;
      exec;
      hb;
      group = Array.init n cfg.group_of;
      svclocks;
      planes;
      lookahead = Sim_time.to_ns (Exec.lookahead exec);
      due = Array.init cfg.groups (fun _ -> Queue.create ());
      peak_rows = Array.make cfg.groups 0;
      sinks;
      stream;
      scratch = Array.make n 0;
      rr_stride;
      rr_buf = Array.init n (fun _ -> Array.make (rr_initial * rr_stride) 0);
      rr_cap = Array.make n rr_initial;
      rr_next = Array.make n 0;
      rr_max = Array.make n (-1);
      rr_ready = Array.make n 0;
      lost_after =
        (match Psn_sim.Delay_model.delta delay with
        | Some d -> Sim_time.to_ns cfg.hold + Sim_time.to_ns d
        | None -> -1);
      truncated = Array.make n false;
      dropped = 0;
      vh_buf;
      vh_cap;
      ctx;
      edges;
      on_observe;
      finished = false;
    }
  in
  (* Checker delivery: copy the stamp into its sequence slot (the last
     read of that plane row by the checker), then hold back; applied at
     flush. *)
  Holdback.on_arrival hb (fun ~src ~seq ~vh ->
      if not t.truncated.(src) then begin
        rr_ensure t ~src ~seq;
        Stamp_plane.blit_to t.planes.(t.group.(src)) vh t.rr_buf.(src)
          ~pos:((seq mod t.rr_cap.(src) * rr_stride) + rr_stamp);
        if seq > t.rr_max.(src) then t.rr_max.(src) <- seq
      end);
  (* Source delivery: a strobe from another source — SVC2 merge, no
     tick, reading the sender group's plane at least a lookahead after
     the write. *)
  let net = Holdback.net hb in
  for pid = 0 to n - 1 do
    Shard_net.set_handler net pid (fun ~src ~a ~b:_ ~c:_ ~d:_ ~e:_ ->
        Strobe_vector.receive_strobe_from
          t.planes.(t.group.(src))
          t.svclocks.(pid) a)
  done;
  Holdback.on_flush hb (fun ~now m ->
      apply_batch t ~now m;
      truncate_lost t ~now);
  t

let emit t ~src ~var ~value =
  let lane = Holdback.admit t.hb ~src ~var ~value in
  let g = t.group.(src) in
  let plane = t.planes.(g) in
  release_delivered t g
    ~now:(Sim_time.to_ns (Engine.now (Exec.engine t.exec ~group:g)));
  (* SVC1: tick + allocate the post-tick snapshot in this group's
     plane; the handle rides both the checker unicast and the strobes. *)
  let vh = Strobe_vector.tick_and_strobe_into plane t.svclocks.(src) in
  let live = Stamp_plane.live plane in
  if live > t.peak_rows.(g) then t.peak_rows.(g) <- live;
  let last =
    ref
      (Holdback.send t.hb ~src ~lane ~value ~vh
         ~tick:(Trace.Clock_strobe { clock = "strobe_vector" }))
  in
  (* Strobe the snapshot to every other source; receivers merge without
     ticking, so these deliveries are not lattice events.  A lost strobe
     only weakens the causal bound (wider slab), never correctness. *)
  let net = Holdback.net t.hb in
  for dst = 0 to t.cfg.n - 1 do
    if dst <> src then begin
      let at = Shard_net.send net ~src ~dst ~a:vh ~b:0 ~c:0 ~d:0 ~e:0 in
      if at > !last then last := at
    end
  done;
  Queue.push !last t.due.(g)

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Holdback.flush_all t.hb (fun ~now m ->
        apply_batch t ~now m;
        t.ctx.now <- now;
        t.ctx.sense <- Sim_time.to_ns now;
        t.ctx.src <- -1;
        for pid = 0 to t.cfg.n - 1 do
          Streaming.close_pid t.stream ~pid
        done;
        Streaming.finish t.stream;
        trace_commit t ~now)
  end

let net t = Holdback.net t.hb
let stream t = t.stream

let updates t = Holdback.updates t.hb
let update_count t = Holdback.update_count t.hb
let edges t = List.rev !(t.edges)
let peak_plane_rows t = Array.fold_left max 0 t.peak_rows
let dropped t = t.dropped
let log_words t = Holdback.log_words t.hb
