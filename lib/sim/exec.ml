(* One workload, two substrates: a single-queue oracle engine, or a
   window-synchronized [Sharded_engine].  The single path mirrors the
   sharded delivery mechanics (pooled records, flat lanes, one global
   handler) so the only difference between substrates is where events
   queue — which is exactly what the differential suite wants to vary.

   Workload determinism contract (what makes same-seed runs identical
   across substrates): derive every entity's RNG stream from
   [(seed, entity id)], never from an engine's own generator; keep each
   group's mutable state group-local; and make cross-group observables
   insensitive to equal-time arrival order (sort on substrate-invariant
   keys before acting). *)

type handler = Sharded_engine.handler

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

type single = {
  s_engine : Engine.t;
  mutable s_handler : handler option;
  mutable s_pool : delivery array;
  mutable s_pool_len : int;
}

type kind = Single of single | Sharded of Sharded_engine.t

type t = { kind : kind; t_seed : int64 }

let single ?(seed = 42L) () =
  {
    kind =
      Single
        {
          s_engine = Engine.create ~seed ~use_default_obs:false ();
          s_handler = None;
          s_pool = [||];
          s_pool_len = 0;
        };
    t_seed = seed;
  }

let sharded ?(seed = 42L) ~shards ~lookahead () =
  { kind = Sharded (Sharded_engine.create ~seed ~shards ~lookahead ()); t_seed = seed }

let seed t = t.t_seed

let shards t =
  match t.kind with Single _ -> 1 | Sharded se -> Sharded_engine.shards se

let is_sharded t = match t.kind with Single _ -> false | Sharded _ -> true

let engine t ~group =
  match t.kind with
  | Single s -> s.s_engine
  | Sharded se -> Sharded_engine.engine se (group mod Sharded_engine.shards se)

let set_handler t h =
  match t.kind with
  | Single s -> s.s_handler <- Some h
  | Sharded se ->
      for sh = 0 to Sharded_engine.shards se - 1 do
        Sharded_engine.set_handler se ~shard:sh h
      done

let release s r =
  if s.s_pool_len = Array.length s.s_pool then begin
    let np = Array.make (2 * max 4 (Array.length s.s_pool)) r in
    Array.blit s.s_pool 0 np 0 s.s_pool_len;
    s.s_pool <- np
  end;
  s.s_pool.(s.s_pool_len) <- r;
  s.s_pool_len <- s.s_pool_len + 1

let acquire s ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 =
  if s.s_pool_len = 0 then
    let rec r =
      {
        v_dst = dst;
        v0 = w0; v1 = w1; v2 = w2; v3 = w3; v4 = w4; v5 = w5; v6 = w6;
        d_fire =
          (fun () ->
            let dst = r.v_dst in
            let w0 = r.v0 and w1 = r.v1 and w2 = r.v2 and w3 = r.v3 in
            let w4 = r.v4 and w5 = r.v5 and w6 = r.v6 in
            release s r;
            match s.s_handler with
            | Some h -> h ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6
            | None -> ());
      }
    in
    r
  else begin
    s.s_pool_len <- s.s_pool_len - 1;
    let r = s.s_pool.(s.s_pool_len) in
    r.v_dst <- dst;
    r.v0 <- w0; r.v1 <- w1; r.v2 <- w2; r.v3 <- w3;
    r.v4 <- w4; r.v5 <- w5; r.v6 <- w6;
    r
  end

let post t ~src_group ~dst_group ~at ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 =
  match t.kind with
  | Single s ->
      let r = acquire s ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 in
      Engine.schedule_at_unit s.s_engine at r.d_fire
  | Sharded se ->
      let k = Sharded_engine.shards se in
      Sharded_engine.post se ~src_shard:(src_group mod k)
        ~dst_shard:(dst_group mod k) ~at ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6

let run t ~until =
  match t.kind with
  | Single s -> Engine.run ~until s.s_engine
  | Sharded se -> Sharded_engine.run se ~until

let events_processed t =
  match t.kind with
  | Single s -> Engine.events_processed s.s_engine
  | Sharded se -> Sharded_engine.events_processed se

let windows t =
  match t.kind with Single _ -> 0 | Sharded se -> Sharded_engine.windows se

let merged_metrics t =
  match t.kind with
  | Single s -> Psn_obs.Metrics.snapshot (Engine.metrics s.s_engine)
  | Sharded se -> Sharded_engine.merged_metrics se

let stats t =
  match t.kind with
  | Single _ -> None
  | Sharded se -> Some (Sharded_engine.stats se)

let shard_snapshots t =
  match t.kind with
  | Single s -> [| Psn_obs.Metrics.snapshot (Engine.metrics s.s_engine) |]
  | Sharded se ->
      Array.init (Sharded_engine.shards se) (fun s ->
          Psn_obs.Metrics.snapshot (Engine.metrics (Sharded_engine.engine se s)))
