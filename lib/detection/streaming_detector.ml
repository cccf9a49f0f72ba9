(* Online Possibly/Definitely checker: strobe-vector stamping at the
   sources, hold-back reordering at the checker, and a streaming
   frontier walk ([Psn_lattice.Streaming]) instead of a post-hoc lattice
   enumeration.  See the .mli for the determinism and liveness
   arguments.

   Cross-shard discipline, for every mutable piece:

     - per-group stamp planes are written only by their group's sources
       (strobe ticks run on the source's shard); a strobe *receiver* on
       another shard reads the foreign plane stamp only at delivery,
       which the window barrier orders after the write (growth blits,
       so stale backing references still see pre-barrier stamps);
     - the reorder rings, value histories, and the walk itself are
       written only by checker events (shard 0); the front end's
       pieces follow {!Holdback}'s discipline.

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
   and reclaim behind {!Psn_lattice.Streaming.base_component}, and the
   hold-back arena.  Two things still grow with the run: the
   transport-side stamp planes, append-only (handles must outlive the
   hold-back) as in every plane-carrying detector here, and
   {!Holdback}'s ground-truth log, two ints per update. *)

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

(* Reorder-ring lanes, stride 5, indexed [seq mod cap]:
   0 = strobe-stamp handle (written at delivery; -1 empty),
   1 = value, 2 = var_idx, 3 = sense, 4 = ready flag
   (1..4 written at flush apply). *)
let rr_stride = 5
let rr_initial = 16
let vh_initial = 8

type t = {
  cfg : cfg;
  hb : Holdback.t;
  svclocks : Strobe_vector.t array;
  planes : Stamp_plane.t array;         (* per group, width n *)
  sinks : Trace.sink array option;
  stream : Streaming.t;
  scratch : int array;                  (* stamp decode buffer, width n *)
  (* Per-source reorder rings (checker-local). *)
  rr_buf : int array array;
  rr_cap : int array;                   (* in entries *)
  rr_next : int array;                  (* next seq to feed *)
  rr_max : int array;                   (* highest seq delivered; -1 none *)
  (* Per-source value histories: entry k = cumulative slot values after
     k updates; entry 0 = unbound sentinel. *)
  vh_buf : int array array;
  vh_cap : int array;                   (* in entries *)
  (* Decision context for [on_edge], set before each observe. *)
  cur_now : Sim_time.t ref;
  cur_sense : int ref;
  cur_trigger : Observation.update option ref;
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

let rr_clear_slot buf off =
  buf.(off) <- -1;
  buf.(off + 4) <- 0

(* Make room so every live seq in [rr_next .. max seq] maps to its own
   slot; grow re-places the live span. *)
let rr_ensure t ~src ~seq =
  if seq - t.rr_next.(src) >= t.rr_cap.(src) then begin
    let cap = ref t.rr_cap.(src) in
    while seq - t.rr_next.(src) >= !cap do
      cap := !cap * 2
    done;
    let nb = Array.make (!cap * rr_stride) 0 in
    for i = 0 to !cap - 1 do
      rr_clear_slot nb (i * rr_stride)
    done;
    let ob = t.rr_buf.(src) and ocap = t.rr_cap.(src) in
    for k = t.rr_next.(src) to t.rr_max.(src) do
      Array.blit ob (k mod ocap * rr_stride) nb (k mod !cap * rr_stride)
        rr_stride
    done;
    t.rr_buf.(src) <- nb;
    t.rr_cap.(src) <- !cap
  end

(* -- the feed path -------------------------------------------------- *)

let feed t ~now ~src ~seq ~vh ~value ~var_idx ~sense =
  vh_write t ~src ~seq ~var_idx ~value;
  t.cur_now := now;
  t.cur_sense := sense;
  t.cur_trigger :=
    Some
      {
        Observation.src;
        var = Holdback.var_name t.hb ~src ~var_idx;
        value = Value.Int value;
        seq;
        sense_time = Sim_time.of_ns sense;
      };
  Stamp_plane.blit_to t.planes.(t.cfg.group_of src) vh t.scratch;
  (match t.on_observe with
  | Some f -> f ~pid:src ~stamp:t.scratch
  | None -> ());
  Streaming.observe t.stream ~pid:src ~stamp:t.scratch

let rec drain t ~now ~src =
  let nx = t.rr_next.(src) in
  if nx <= t.rr_max.(src) then begin
    let buf = t.rr_buf.(src) in
    let off = nx mod t.rr_cap.(src) * rr_stride in
    if buf.(off + 4) = 1 then begin
      let vh = buf.(off)
      and value = buf.(off + 1)
      and var_idx = buf.(off + 2)
      and sense = buf.(off + 3) in
      rr_clear_slot buf off;
      t.rr_next.(src) <- nx + 1;
      feed t ~now ~src ~seq:nx ~vh ~value ~var_idx ~sense;
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
    let buf = t.rr_buf.(src) in
    let off = seq mod t.rr_cap.(src) * rr_stride in
    buf.(off + 1) <- Pending_arena.value pend i;
    buf.(off + 2) <- var_idx;
    buf.(off + 3) <- Pending_arena.sense pend i;
    buf.(off + 4) <- 1;
    drain t ~now ~src
  done;
  if m > 0 then trace_commit t ~now

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
  let cur_now = ref Sim_time.zero
  and cur_sense = ref 0
  and cur_trigger = ref None
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
  let on_edge e =
    Metrics.tick c_edges;
    edges := { edge = e; at = !cur_now; trigger = !cur_trigger } :: !edges;
    match sinks_opt with
    | Some s ->
        let verdict =
          match e with
          | Streaming.Possibly_holds _ -> "possibly"
          | Streaming.Definitely_holds _ -> "definitely"
          | Streaming.Possibly_fails -> "possibly_fails"
          | Streaming.Definitely_fails -> "definitely_fails"
        in
        Trace.emit s.(0) ~time:!cur_now ~pid:n
          (Trace.Detector_occurrence
             { verdict; window_ns = Sim_time.to_ns !cur_now - !cur_sense })
    | None -> ()
  in
  let stream = Streaming.create ~n ~cap:cfg.cap ~on_edge ~holds () in
  let t =
    {
      cfg;
      hb;
      svclocks;
      planes;
      sinks;
      stream;
      scratch = Array.make n 0;
      rr_buf =
        Array.init n (fun _ ->
            let b = Array.make (rr_initial * rr_stride) 0 in
            for i = 0 to rr_initial - 1 do
              rr_clear_slot b (i * rr_stride)
            done;
            b);
      rr_cap = Array.make n rr_initial;
      rr_next = Array.make n 0;
      rr_max = Array.make n (-1);
      vh_buf;
      vh_cap;
      cur_now;
      cur_sense;
      cur_trigger;
      edges;
      on_observe;
      finished = false;
    }
  in
  (* Checker delivery: park the strobe handle at its sequence slot, then
     hold back; applied at flush. *)
  Holdback.on_arrival hb (fun ~src ~seq ~vh ->
      rr_ensure t ~src ~seq;
      t.rr_buf.(src).(seq mod t.rr_cap.(src) * rr_stride) <- vh;
      if seq > t.rr_max.(src) then t.rr_max.(src) <- seq);
  (* Source delivery: a strobe from another source — SVC2 merge, no
     tick, reading the sender group's plane after the barrier. *)
  let net = Holdback.net hb in
  for pid = 0 to n - 1 do
    Shard_net.set_handler net pid (fun ~src ~a ~b:_ ~c:_ ~d:_ ~e:_ ->
        Strobe_vector.receive_strobe_from
          t.planes.(cfg.group_of src)
          t.svclocks.(pid) a)
  done;
  Holdback.on_flush hb (apply_batch t);
  t

let emit t ~src ~var ~value =
  let lane = Holdback.admit t.hb ~src ~var ~value in
  (* SVC1: tick + allocate the post-tick snapshot in this group's
     plane; the handle rides both the checker unicast and the strobes. *)
  let vh =
    Strobe_vector.tick_and_strobe_into
      t.planes.(t.cfg.group_of src)
      t.svclocks.(src)
  in
  Holdback.send t.hb ~src ~lane ~value ~vh
    ~tick:(Trace.Clock_strobe { clock = "strobe_vector" });
  (* Strobe the snapshot to every other source; receivers merge without
     ticking, so these deliveries are not lattice events.  A lost strobe
     only weakens the causal bound (wider slab), never correctness. *)
  let net = Holdback.net t.hb in
  for dst = 0 to t.cfg.n - 1 do
    if dst <> src then Shard_net.send net ~src ~dst ~a:vh ~b:0 ~c:0 ~d:0 ~e:0
  done

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Holdback.flush_all t.hb (fun ~now m ->
        apply_batch t ~now m;
        t.cur_now := now;
        t.cur_sense := Sim_time.to_ns now;
        t.cur_trigger := None;
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
let observed t = Streaming.events_observed t.stream
