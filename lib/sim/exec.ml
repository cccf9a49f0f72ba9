(* One substrate: K per-shard [Engine]s, run straight through by the
   single queue (K = 1, no windows) or in conservative windows.

   Windowed runs alternate two phases, both on the calling domain:

     window:  shards 0 .. K-1, in turn, drain their queues up to
              [window_end - 1]; a cross-shard send only appends to its
              (src, dst) mailbox ring, which nothing reads before the
              barrier;

     barrier: the coordinator drains every mailbox in src-major,
              dst-minor, FIFO order into the destination queues, then
              computes the next window from the new global minimum.

   Windows run inline rather than on the domain pool: on a 2-CPU host,
   handing every window to the pool made K = 2 runs several times
   slower than running them on one domain (DESIGN.md, "Sharded
   engine").  Nothing in a run crosses a domain;
   what makes the shards independent — and a parallel window loop
   possible again — is group locality (see the contract below).

   Mailbox ring layout: [stride] ints per message — delivery time,
   destination pid, and the seven payload words — in one flat
   [int array] that grows by doubling and is reused across windows, so
   a steady-state cross-shard send writes 9 ints and allocates nothing.
   Delivery closures are pooled per destination shard (same trick as
   [Net]'s delivery records): acquired by the poster or, for mail, by
   the coordinator at the barrier, released by the shard when they
   fire.

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
  lookahead : int; (* ns; > 0 when windowed *)
  shard : shard array;
  mail : mailbox array; (* src * k + dst; diagonal entries stay empty *)
  mutable handler : handler option;
  mutable window_end : int; (* exclusive end of the last window run *)
  mutable rounds : int;
  stats : Psn_obs.Shard_stats.t option;
      (* [None] for the single queue, which runs no windows; otherwise
         host-time window/barrier counters that never feed a sim
         artifact *)
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
    handler = None;
    window_end = 0;
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

let post t ~src_group ~dst_group ~at ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 =
  let src_shard = src_group mod t.k and dst_shard = dst_group mod t.k in
  if src_shard = dst_shard then begin
    (* Same shard — always, on the single queue: schedule directly.
       This keeps K = 1 windowed runs event-for-event identical to the
       single queue. *)
    let sh = t.shard.(src_shard) in
    let r = acquire t sh ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 in
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
    (* Two shards imply a windowed run, so [stats] is present. *)
    match t.stats with
    | Some st -> Psn_obs.Shard_stats.note_posted st ~src:src_shard
    | None -> ()
  end

(* Barrier drain.  Deterministic src-major, dst-minor, FIFO-within-box
   order; every entry must land at or past the window end the lookahead
   promised. *)
let drain t st =
  let occupancy = ref 0 in
  for src = 0 to t.k - 1 do
    for dst = 0 to t.k - 1 do
      let box = t.mail.((src * t.k) + dst) in
      if box.len > 0 then begin
        occupancy := !occupancy + box.len;
        Psn_obs.Shard_stats.note_traffic st ~src ~dst ~msgs:(box.len / stride);
        let sh = t.shard.(dst) in
        let b = box.buf in
        let o = ref 0 in
        while !o < box.len do
          let at = b.(!o) in
          if at < t.window_end then
            invalid_arg
              (Printf.sprintf
                 "Exec: lookahead violation — message from shard %d to \
                  shard %d delivered at %dns inside the window ending at \
                  %dns; the transport sampled a delay below the engine's \
                  lookahead bound"
                 src dst at t.window_end);
          let r =
            acquire t sh ~dst:b.(!o + 1) ~w0:b.(!o + 2) ~w1:b.(!o + 3)
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
  Psn_obs.Shard_stats.note_occupancy st ~ints:!occupancy

let global_next t =
  Array.fold_left
    (fun acc s -> min acc (Engine.next_time_ns s.engine))
    max_int t.shard

let run_windows t st ~until =
  let r0 = Psn_obs.Shard_stats.now_ns () in
  let until_ns = Sim_time.to_ns until in
  let continue = ref true in
  while !continue do
    (* Drain before measuring: the previous window's cross-shard sends —
       and any posts made before the first [run] (initial conditions) —
       must be in the queues for the global minimum to see them. *)
    Psn_obs.Shard_stats.round_begin st;
    let d0 = Psn_obs.Shard_stats.now_ns () in
    Psn_obs.Profile.phase "sharded.drain" (fun () -> drain t st);
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
          for s = 0 to t.k - 1 do
            let b0 = Psn_obs.Shard_stats.now_ns () in
            let sh = t.shard.(s) in
            Engine.run ~until:w_last sh.engine;
            Psn_obs.Shard_stats.shard_report st ~shard:s
              ~events_total:(Engine.events_processed sh.engine)
              ~busy_ns:(Psn_obs.Shard_stats.now_ns () - b0)
          done);
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

let run t ~until =
  match t.stats with
  | None -> Engine.run ~until t.shard.(0).engine
  | Some st -> run_windows t st ~until
