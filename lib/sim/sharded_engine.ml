(* Conservative window-synchronized sharding over per-shard [Engine]s.

   The coordinator alternates two phases:

     window:  every shard drains its queue up to [window_end - 1] on the
              [Psn_util.Parallel] pool; shards share no mutable state —
              cross-shard sends only append to their (src, dst) mailbox
              ring, which no other domain touches during the window;

     barrier: the coordinator (alone) drains every mailbox in src-major,
              dst-minor, FIFO order into the destination queues, then
              computes the next window from the new global minimum.

   The pool's job hand-off (mutex + condition) gives the happens-before
   edges: coordinator-before-window for the mailbox writes of the
   previous drain, window-before-coordinator for the rings written by
   the shards.

   Mailbox ring layout: [stride] ints per message — delivery time,
   destination pid, and [lanes] payload words — in one flat [int array]
   that grows by doubling and is reused across windows, so a
   steady-state cross-shard send writes 9 ints and allocates nothing.
   Delivery closures are pooled per destination shard (same trick as
   [Net]'s delivery records): acquired by the coordinator at the
   barrier, released by the shard when they fire, never concurrently. *)

type handler =
  dst:int ->
  w0:int -> w1:int -> w2:int -> w3:int -> w4:int -> w5:int -> w6:int -> unit

let lanes = 7
let stride = lanes + 2 (* at, dst, w0..w6 *)

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
  mutable handler : handler option;
  mutable pool : delivery array; (* free stack, see header comment *)
  mutable pool_len : int;
}

type mailbox = { mutable buf : int array; mutable len : int (* ints used *) }

type t = {
  k : int;
  lookahead : int; (* ns, > 0 *)
  shard : shard array;
  mail : mailbox array; (* src * k + dst; diagonal entries stay empty *)
  mutable window_end : int; (* exclusive end of the last window run *)
  mutable rounds : int;
  stats : Psn_obs.Shard_stats.t;
      (* host-time window/barrier counters; never feeds a sim artifact *)
}

let create ?(seed = 42L) ~shards ~lookahead () =
  if shards < 1 then invalid_arg "Sharded_engine.create: shards must be >= 1";
  if Sim_time.(lookahead <= Sim_time.zero) then
    invalid_arg
      "Sharded_engine.create: lookahead must be positive — a delay model \
       with Delay_model.min_delay = 0 offers no conservative window and \
       cannot drive a sharded run";
  let shard =
    Array.init shards (fun s ->
        {
          engine =
            Engine.create
              ~seed:(Int64.add seed (Int64.of_int (s * 0x9E3779B9)))
              ~use_default_obs:false ();
          handler = None;
          pool = [||];
          pool_len = 0;
        })
  in
  {
    k = shards;
    lookahead = Sim_time.to_ns lookahead;
    shard;
    mail = Array.init (shards * shards) (fun _ -> { buf = [||]; len = 0 });
    window_end = 0;
    rounds = 0;
    stats =
      Psn_obs.Shard_stats.create ~shards
        ~lookahead_ns:(Sim_time.to_ns lookahead);
  }

let shards t = t.k
let engine t s = t.shard.(s).engine
let windows t = t.rounds
let now t = Engine.now t.shard.(0).engine
let stats t = t.stats

let set_handler t ~shard h = t.shard.(shard).handler <- Some h

let events_processed t =
  Array.fold_left (fun acc s -> acc + Engine.events_processed s.engine) 0 t.shard

let merged_metrics t =
  Psn_obs.Metrics.merge_snapshots
    (Array.to_list
       (Array.map (fun s -> Psn_obs.Metrics.snapshot (Engine.metrics s.engine)) t.shard))

let release sh r =
  if sh.pool_len = Array.length sh.pool then begin
    let np = Array.make (2 * max 4 (Array.length sh.pool)) r in
    Array.blit sh.pool 0 np 0 sh.pool_len;
    sh.pool <- np
  end;
  sh.pool.(sh.pool_len) <- r;
  sh.pool_len <- sh.pool_len + 1

let acquire sh ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 =
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
            match sh.handler with
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

let post t ~src_shard ~dst_shard ~at ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 =
  if src_shard = dst_shard then begin
    (* Same shard: schedule directly, exactly as a single-queue engine
       would — this keeps K=1 sharded runs event-for-event identical to
       the oracle.  Runs on the shard's own domain, touching only its
       own pool and queue. *)
    let sh = t.shard.(src_shard) in
    let r = acquire sh ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 in
    Engine.schedule_at_unit sh.engine at r.d_fire
  end
  else begin
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
    b.(o) <- Sim_time.to_ns at;
    b.(o + 1) <- dst;
    b.(o + 2) <- w0; b.(o + 3) <- w1; b.(o + 4) <- w2; b.(o + 5) <- w3;
    b.(o + 6) <- w4; b.(o + 7) <- w5; b.(o + 8) <- w6;
    box.len <- need;
    (* Shard-local slot of the conservation counter: safe mid-window. *)
    Psn_obs.Shard_stats.note_posted t.stats ~src:src_shard
  end

(* Barrier drain: coordinator only.  Deterministic src-major, dst-minor,
   FIFO-within-box order; every entry must land at or past the window
   end the lookahead promised. *)
let drain t =
  let occupancy = ref 0 in
  for src = 0 to t.k - 1 do
    for dst = 0 to t.k - 1 do
      let box = t.mail.((src * t.k) + dst) in
      if box.len > 0 then begin
        occupancy := !occupancy + box.len;
        Psn_obs.Shard_stats.note_traffic t.stats ~src ~dst
          ~msgs:(box.len / stride);
        let sh = t.shard.(dst) in
        let b = box.buf in
        let o = ref 0 in
        while !o < box.len do
          let at = b.(!o) in
          if at < t.window_end then
            invalid_arg
              (Printf.sprintf
                 "Sharded_engine: lookahead violation — message from shard \
                  %d to shard %d delivered at %dns inside the window ending \
                  at %dns; the transport sampled a delay below the \
                  engine's lookahead bound"
                 src dst at t.window_end);
          let r =
            acquire sh ~dst:b.(!o + 1) ~w0:b.(!o + 2) ~w1:b.(!o + 3)
              ~w2:b.(!o + 4) ~w3:b.(!o + 5) ~w4:b.(!o + 6) ~w5:b.(!o + 7)
              ~w6:b.(!o + 8)
          in
          Engine.schedule_at_unit sh.engine at r.d_fire;
          o := !o + stride
        done;
        box.len <- 0
      end
    done
  done;
  Psn_obs.Shard_stats.note_occupancy t.stats ~ints:!occupancy

let global_next t =
  Array.fold_left
    (fun acc s -> min acc (Engine.next_time_ns s.engine))
    max_int t.shard

let run t ~until =
  let st = t.stats in
  let r0 = Psn_obs.Shard_stats.now_ns () in
  let until_ns = Sim_time.to_ns until in
  let continue = ref true in
  while !continue do
    (* Drain before measuring: the previous window's cross-shard sends —
       and any posts made before the first [run] (initial conditions) —
       must be in the queues for the global minimum to see them. *)
    Psn_obs.Shard_stats.round_begin st;
    let d0 = Psn_obs.Shard_stats.now_ns () in
    Psn_obs.Profile.phase "sharded.drain" (fun () -> drain t);
    let d1 = Psn_obs.Shard_stats.now_ns () in
    Psn_obs.Shard_stats.drain_done st ~host_ns:(d1 - d0);
    let next = global_next t in
    let d2 = Psn_obs.Shard_stats.now_ns () in
    Psn_obs.Shard_stats.fold_done st ~host_ns:(d2 - d1);
    (* Only now — with the rings drained into the queues — is the
       previous window's limit knowable. *)
    Psn_obs.Shard_stats.classify_prev st ~next_ns:next;
    if next > until_ns then begin
      Psn_obs.Shard_stats.round_abort st;
      continue := false
    end
    else begin
      let cand = next + t.lookahead in
      let cand = if cand < next then max_int else cand (* overflow *) in
      let w_end = min cand (until_ns + 1) in
      t.window_end <- w_end;
      Psn_obs.Shard_stats.window_open st ~start_ns:next ~end_ns:w_end;
      let w_last = Sim_time.of_ns (w_end - 1) in
      Psn_obs.Profile.phase "sharded.window" (fun () ->
          ignore
            (Psn_util.Parallel.init t.k (fun s ->
                 let b0 = Psn_obs.Shard_stats.now_ns () in
                 let sh = t.shard.(s) in
                 Engine.run ~until:w_last sh.engine;
                 (* Writes only slot [s]; the pool join publishes it. *)
                 Psn_obs.Shard_stats.shard_report st ~shard:s
                   ~events_total:(Engine.events_processed sh.engine)
                   ~busy_ns:(Psn_obs.Shard_stats.now_ns () - b0))));
      Psn_obs.Shard_stats.window_close st ~clipped:(cand > until_ns + 1)
        ~par_ns:(Psn_obs.Shard_stats.now_ns () - d2);
      t.rounds <- t.rounds + 1
    end
  done;
  (* Align every clock on the horizon (queues hold only events beyond
     it, so this drains nothing). *)
  Array.iter (fun s -> Engine.run ~until s.engine) t.shard;
  Psn_obs.Shard_stats.run_done st
    ~wall_ns:(Psn_obs.Shard_stats.now_ns () - r0)
