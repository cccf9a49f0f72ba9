(* One substrate: K per-shard [Engine]s, run straight through by the
   single queue (K = 1, no horizons) or in conservative rounds.

   A round gives every shard one turn, shards 0 .. K-1 in order, all on
   the calling domain.  At its turn, shard s

     - drains its own mailboxes, in src order and FIFO within each, into
       its queue;
     - takes its safe horizon

         H_s = min over r <> s of E_r + lookahead

       where E_r is the earliest event pending at shard r, queued or in
       a mailbox to r, and runs every event strictly below H_s (clipped
       to the run's horizon);
     - and, whenever one of its events posts to another shard at [at],
       lowers its running horizon to [at + lookahead]: the destination
       could answer from then on.  [Engine.lower_horizon] carries that
       into the drain loop the turn is running.

   Nothing else can reach s below H_s: a message from r is sent by an
   event at or after E_r, so it lands at or past E_r + lookahead, and a
   chain that starts at one of s's own events leaves s through a post
   at some [at] and comes back no earlier than [at + lookahead], where
   that post lowered H_s.  Hence the invariant the detectors' plane
   release relies on: while a delivery at [d] is pending anywhere, no
   shard's clock passes [d + lookahead].  The turns read each other's
   state (shard 1's horizon sees what shard 0 ran and posted in the same
   round), so they are not a snapshot a parallel loop could run;
   DESIGN.md ("Sharded engine") has the numbers.

   A post made during a run must land at or past the poster's clock plus
   the lookahead, or [post] raises; posts made between runs must land at
   or past the end of the last round.

   Mailbox ring layout: [stride] ints per message — delivery time,
   destination pid, and the seven payload words — in one flat
   [int array] that grows by doubling and is reused across rounds, so
   a steady-state cross-shard send writes 9 ints and allocates nothing.
   Delivery closures are pooled per destination shard (same trick as
   [Net]'s delivery records): acquired by the poster or, for mail, by
   the destination's drain, released by the shard when they fire.

   Workload determinism contract (what makes same-seed runs identical
   across substrates): derive every entity's RNG stream from
   [(seed, entity id)], never from an engine's own generator; keep each
   group's mutable state group-local; and make cross-group observables
   insensitive to equal-time arrival order (sort on substrate-invariant
   keys before acting). *)

type handler =
  dst:int ->
  w0:int -> w1:int -> w2:int -> w3:int -> w4:int -> w5:int -> w6:int -> unit

let stride = 9 (* at, dst, w0..w6 *)

(* A pooled delivery: mutable lanes plus a closure allocated once per
   record.  [d_fire] copies the lanes to locals and releases the record
   before invoking the handler, so re-entrant same-shard sends can reuse
   it immediately. *)
type delivery = {
  mutable v_dst : int;
  mutable v0 : int;
  mutable v1 : int;
  mutable v2 : int;
  mutable v3 : int;
  mutable v4 : int;
  mutable v5 : int;
  mutable v6 : int;
  d_fire : unit -> unit;
}

type shard = {
  engine : Engine.t;
  mutable pool : delivery array; (* free stack, see header comment *)
  mutable pool_len : int;
}

type mailbox = { mutable buf : int array; mutable len : int (* ints used *) }

type t = {
  seed : int64;
  k : int;
  lookahead : int; (* ns; > 0 when sharded *)
  shard : shard array;
  mail : mailbox array; (* src * k + dst; diagonal entries stay empty *)
  mail_min : int array;
      (* per destination shard: earliest delivery time in its
         mailboxes, [max_int] when they are empty *)
  mutable handler : handler option;
  mutable running : bool; (* inside [run]'s rounds *)
  mutable last_end : int; (* furthest horizon of the last round *)
  mutable rounds : int;
  stats : Psn_obs.Shard_stats.t option;
      (* [None] for the single queue, which runs no rounds; otherwise
         host-time round counters that never feed a sim artifact *)
}

let make ~seed ~shards ~lookahead stats =
  let shard =
    Array.init shards (fun s ->
        {
          engine =
            Engine.create
              ~seed:(Int64.add seed (Int64.of_int (s * 0x9E3779B9)))
              ~use_default_obs:false ();
          pool = [||];
          pool_len = 0;
        })
  in
  {
    seed;
    k = shards;
    lookahead;
    shard;
    mail = Array.init (shards * shards) (fun _ -> { buf = [||]; len = 0 });
    mail_min = Array.make shards max_int;
    handler = None;
    running = false;
    last_end = 0;
    rounds = 0;
    stats;
  }

let single ?(seed = 42L) () = make ~seed ~shards:1 ~lookahead:0 None

let sharded ?(seed = 42L) ~shards ~lookahead () =
  if shards < 1 then invalid_arg "Exec.sharded: shards must be >= 1";
  if Sim_time.(lookahead <= Sim_time.zero) then
    invalid_arg
      "Exec.sharded: lookahead must be positive — a delay model with \
       Delay_model.min_delay = 0 offers no conservative window and cannot \
       drive a sharded run";
  let lookahead = Sim_time.to_ns lookahead in
  make ~seed ~shards ~lookahead
    (Some (Psn_obs.Shard_stats.create ~shards ~lookahead_ns:lookahead))

let seed t = t.seed
let shards t = t.k
let lookahead t = Sim_time.of_ns t.lookahead
let is_sharded t = Option.is_some t.stats
let engine t ~group = t.shard.(group mod t.k).engine
let set_handler t h = t.handler <- Some h
let windows t = t.rounds
let stats t = t.stats

let events_processed t =
  Array.fold_left (fun acc s -> acc + Engine.events_processed s.engine) 0 t.shard

let shard_snapshots t =
  Array.map (fun s -> Psn_obs.Metrics.snapshot (Engine.metrics s.engine)) t.shard

let merged_metrics t =
  Psn_obs.Metrics.merge_snapshots (Array.to_list (shard_snapshots t))

let release sh r =
  if sh.pool_len = Array.length sh.pool then begin
    let np = Array.make (2 * max 4 (Array.length sh.pool)) r in
    Array.blit sh.pool 0 np 0 sh.pool_len;
    sh.pool <- np
  end;
  sh.pool.(sh.pool_len) <- r;
  sh.pool_len <- sh.pool_len + 1

let acquire t sh ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 =
  if sh.pool_len = 0 then
    let rec r =
      {
        v_dst = dst;
        v0 = w0; v1 = w1; v2 = w2; v3 = w3; v4 = w4; v5 = w5; v6 = w6;
        d_fire =
          (fun () ->
            let dst = r.v_dst in
            let w0 = r.v0 and w1 = r.v1 and w2 = r.v2 and w3 = r.v3 in
            let w4 = r.v4 and w5 = r.v5 and w6 = r.v6 in
            release sh r;
            match t.handler with
            | Some h -> h ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6
            | None -> ());
      }
    in
    r
  else begin
    sh.pool_len <- sh.pool_len - 1;
    let r = sh.pool.(sh.pool_len) in
    r.v_dst <- dst;
    r.v0 <- w0; r.v1 <- w1; r.v2 <- w2; r.v3 <- w3;
    r.v4 <- w4; r.v5 <- w5; r.v6 <- w6;
    r
  end

let violation fmt =
  Printf.ksprintf
    (fun what ->
      invalid_arg
        ("Exec.post: lookahead violation — " ^ what
       ^ "; the transport sampled a delay below the engine's lookahead bound"))
    fmt

let post t ~src_group ~dst_group ~at ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 =
  let src_shard = src_group mod t.k and dst_shard = dst_group mod t.k in
  if src_shard = dst_shard then begin
    (* Same shard — always, on the single queue: schedule directly.
       This keeps K = 1 sharded runs event-for-event identical to the
       single queue. *)
    let sh = t.shard.(src_shard) in
    let r = acquire t sh ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 in
    Engine.schedule_at_unit sh.engine at r.d_fire
  end
  else begin
    let at_ns = Sim_time.to_ns at in
    if t.running then begin
      (* The poster's turn is running: the destination may already have
         run up to this clock plus the lookahead, and from [at] on it
         could answer, so the turn must stop below [at + lookahead]. *)
      let engine = t.shard.(src_shard).engine in
      let now = Sim_time.to_ns (Engine.now engine) in
      if at_ns - now < t.lookahead then
        violation
          "message from shard %d to shard %d at %dns, less than the %dns \
           lookahead after the poster's clock %dns"
          src_shard dst_shard at_ns t.lookahead now;
      if at_ns <= max_int - t.lookahead then
        Engine.lower_horizon engine (Sim_time.of_ns (at_ns + t.lookahead - 1))
    end
    else if at_ns < t.last_end then
      violation
        "message from shard %d to shard %d at %dns, inside the last round, \
         which ran to %dns"
        src_shard dst_shard at_ns t.last_end;
    let box = t.mail.((src_shard * t.k) + dst_shard) in
    let need = box.len + stride in
    if need > Array.length box.buf then begin
      let cap = ref (max (stride * 16) (Array.length box.buf)) in
      while !cap < need do
        cap := !cap * 2
      done;
      let nb = Array.make !cap 0 in
      Array.blit box.buf 0 nb 0 box.len;
      box.buf <- nb
    end;
    let b = box.buf and o = box.len in
    b.(o) <- at_ns;
    b.(o + 1) <- dst;
    b.(o + 2) <- w0; b.(o + 3) <- w1; b.(o + 4) <- w2; b.(o + 5) <- w3;
    b.(o + 6) <- w4; b.(o + 7) <- w5; b.(o + 8) <- w6;
    box.len <- need;
    if at_ns < t.mail_min.(dst_shard) then t.mail_min.(dst_shard) <- at_ns;
    (* Two shards imply a sharded run, so [stats] is present. *)
    match t.stats with
    | Some st -> Psn_obs.Shard_stats.note_posted st ~src:src_shard
    | None -> ()
  end

(* Shard [dst]'s drain, at the start of its turn: its mailboxes in src
   order, FIFO within each.  [post] checked every entry already. *)
let drain t st dst =
  let sh = t.shard.(dst) in
  let occupancy = ref 0 in
  for src = 0 to t.k - 1 do
    let box = t.mail.((src * t.k) + dst) in
    if box.len > 0 then begin
      occupancy := !occupancy + box.len;
      Psn_obs.Shard_stats.note_traffic st ~src ~dst ~msgs:(box.len / stride);
      let b = box.buf in
      let o = ref 0 in
      while !o < box.len do
        let r =
          acquire t sh ~dst:b.(!o + 1) ~w0:b.(!o + 2) ~w1:b.(!o + 3)
            ~w2:b.(!o + 4) ~w3:b.(!o + 5) ~w4:b.(!o + 6) ~w5:b.(!o + 7)
            ~w6:b.(!o + 8)
        in
        Engine.schedule_at_unit sh.engine (Sim_time.of_ns b.(!o)) r.d_fire;
        o := !o + stride
      done;
      box.len <- 0
    end
  done;
  t.mail_min.(dst) <- max_int;
  if !occupancy > 0 then
    Psn_obs.Shard_stats.note_occupancy st ~ints:!occupancy

let[@inline] imin (a : int) b = if a < b then a else b

(* Earliest event pending at any shard but [skip], queued or in a
   mailbox to it; [max_int] when there is none. *)
let earliest_but t skip =
  let m = ref max_int in
  for r = 0 to t.k - 1 do
    if r <> skip then
      m := imin !m (imin (Engine.next_time_ns t.shard.(r).engine) t.mail_min.(r))
  done;
  !m

(* Shard [s]'s safe horizon (exclusive), before its own posts lower it. *)
let horizon t s =
  let m = earliest_but t s in
  if m > max_int - t.lookahead then max_int else m + t.lookahead

let rounds t st ~until =
  let now = Psn_obs.Shard_stats.now_ns in
  let until_ns = Sim_time.to_ns until in
  let stop = until_ns + 1 in
  let continue = ref true in
  while !continue do
    Psn_obs.Shard_stats.round_begin st;
    let t0 = now () in
    let next = earliest_but t (-1) in
    let t1 = now () in
    Psn_obs.Shard_stats.fold_done st ~host_ns:(t1 - t0);
    (* The previous round's limit is knowable only now, with every
       shard's queue and mailboxes in view. *)
    Psn_obs.Shard_stats.classify_prev st ~next_ns:next;
    if next > until_ns then begin
      (* Nothing left below the horizon: move what the mailboxes hold
         (all past it) into the queues, so a finished run leaves the
         rings empty. *)
      Psn_obs.Profile.phase "sharded.drain" (fun () ->
          for s = 0 to t.k - 1 do
            drain t st s
          done);
      Psn_obs.Shard_stats.drain_done st ~host_ns:(now () - t1);
      Psn_obs.Shard_stats.round_abort st;
      continue := false
    end
    else begin
      (* Turns are timed back to back: each shard's drain runs from the
         previous reading, its horizon and events from the next. *)
      let last = ref t1 and drained = ref 0 in
      let furthest = ref 0 and clipped = ref false in
      for s = 0 to t.k - 1 do
        let engine = t.shard.(s).engine in
        Psn_obs.Profile.phase "sharded.drain" (fun () -> drain t st s);
        let d = now () in
        let cand = horizon t s in
        let limit = Sim_time.of_ns (imin cand stop - 1) in
        Psn_obs.Profile.phase "sharded.window" (fun () ->
            Engine.run ~until:limit engine);
        let b = now () in
        Psn_obs.Shard_stats.shard_report st ~shard:s
          ~events_total:(Engine.events_processed engine) ~busy_ns:(b - d);
        drained := !drained + (d - !last);
        last := b;
        (* The clock ends on the turn's last horizon, lowered or not. *)
        let reached = Sim_time.to_ns (Engine.now engine) + 1 in
        if reached > !furthest then furthest := reached;
        if cand > stop && reached = stop then clipped := true
      done;
      Psn_obs.Shard_stats.drain_done st ~host_ns:!drained;
      Psn_obs.Shard_stats.window_open st ~start_ns:next ~end_ns:!furthest;
      Psn_obs.Shard_stats.window_close st ~clipped:!clipped
        ~par_ns:(!last - t1 - !drained);
      t.last_end <- !furthest;
      t.rounds <- t.rounds + 1
    end
  done

let run t ~until =
  match t.stats with
  | None -> Engine.run ~until t.shard.(0).engine
  | Some st ->
      let r0 = Psn_obs.Shard_stats.now_ns () in
      t.running <- true;
      Fun.protect
        ~finally:(fun () -> t.running <- false)
        (fun () -> rounds t st ~until);
      (* Align every clock on the horizon (queues hold only events
         beyond it, so this drains nothing). *)
      Array.iter (fun s -> Engine.run ~until s.engine) t.shard;
      Psn_obs.Shard_stats.run_done st
        ~wall_ns:(Psn_obs.Shard_stats.now_ns () - r0)
