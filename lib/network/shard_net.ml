(* Substrate-invariant transport: per-source RNG streams over [Exec].

   [Net] samples loss and delay from one engine-owned stream, so the
   draw order — and with it every delivery time — depends on the global
   interleaving of sends.  That is fine for a single queue and fatal for
   sharding: two shards' sends would race for the next draw.  Here every
   source pid owns a stream seeded from [(Exec.seed, src)]; draws happen
   in the source's program order, which no shard count can change, so
   the full delivery schedule is a pure function of the seed.

   Metrics: counters/histogram registered in each group's engine
   registry under [shardnet.<label>.*].  On the single substrate all
   groups resolve to one registry (get-or-create aliases the cells); on
   the sharded substrate the per-shard cells sum under
   [Metrics.merge_snapshots] to the same totals.  Totals below iterate
   the physically-distinct registries once each, so aliased cells are
   not double-counted. *)

module Engine = Psn_sim.Engine
module Exec = Psn_sim.Exec
module Sim_time = Psn_sim.Sim_time
module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics

let payload_words = 5

type group_cells = {
  c_sent : Metrics.counter;
  c_delivered : Metrics.counter;
  c_dropped : Metrics.counter;
  c_words : Metrics.counter;
  h_delay : Metrics.histogram;
}

type t = {
  exec : Exec.t;
  n : int;
  group : int array;           (* pid -> group, tabulated at [create] *)
  delay : Psn_sim.Delay_model.t;
  loss : Psn_sim.Loss_model.t;
  rngs : Psn_util.Rng.t array; (* per source pid *)
  flows : int array;           (* per source pid: next flow ordinal *)
  handlers :
    (src:int -> a:int -> b:int -> c:int -> d:int -> e:int -> unit) option array;
  sinks : Trace.sink array option; (* per group *)
  label : string;
  cells : group_cells array;  (* per group; cells alias on the single substrate *)
  uniq : group_cells list;    (* one entry per physically-distinct registry *)
}

(* SplitMix-style seed mix so per-source streams are decorrelated even
   for adjacent pids. *)
let mix_seed seed src =
  Int64.add seed (Int64.mul (Int64.of_int (src + 1)) 0x9E3779B97F4A7C15L)

let create ?loss ?(label = "data") ?sinks exec ~n ~groups ~group_of ~delay () =
  if n <= 0 then invalid_arg "Shard_net.create: n must be positive";
  if groups <= 0 then invalid_arg "Shard_net.create: groups must be positive";
  (match sinks with
  | Some s when Array.length s <> groups ->
      invalid_arg "Shard_net.create: one sink per group required"
  | _ -> ());
  let seed = Exec.seed exec in
  let registries = ref [] in
  let uniq = ref [] in
  let cells =
    Array.init groups (fun g ->
        let m = Engine.metrics (Exec.engine exec ~group:g) in
        let metric suffix = Printf.sprintf "shardnet.%s.%s" label suffix in
        let cell =
          {
            c_sent = Metrics.counter m (metric "sent");
            c_delivered = Metrics.counter m (metric "delivered");
            c_dropped = Metrics.counter m (metric "dropped");
            c_words = Metrics.counter m (metric "words");
            h_delay =
              Metrics.histogram m ~lo:0.0 ~hi:1000.0 ~bins:20 (metric "delay_ms");
          }
        in
        if not (List.memq m !registries) then begin
          registries := m :: !registries;
          uniq := cell :: !uniq
        end;
        cell)
  in
  let t =
    {
      exec;
      n;
      group = Array.init n group_of;
      delay;
      loss = (match loss with Some l -> l | None -> Psn_sim.Loss_model.no_loss);
      rngs = Array.init n (fun src -> Psn_util.Rng.create ~seed:(mix_seed seed src) ());
      flows = Array.make n 0;
      handlers = Array.make n None;
      sinks;
      label;
      cells;
      uniq = !uniq;
    }
  in
  (* Delivery dispatch: runs with the destination group's engine at the
     delivery time. *)
  Exec.set_handler exec (fun ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 ->
      let src = w0 and flow = w1 in
      let g_dst = t.group.(dst) in
      Metrics.tick t.cells.(g_dst).c_delivered;
      (match t.sinks with
      | Some s ->
          Trace.emit s.(g_dst)
            ~time:(Engine.now (Exec.engine t.exec ~group:g_dst))
            ~pid:dst
            (Trace.Net_deliver { src; dst; kind = t.label; flow })
      | None -> ());
      match t.handlers.(dst) with
      | Some h -> h ~src ~a:w2 ~b:w3 ~c:w4 ~d:w5 ~e:w6
      | None -> ());
  t

let set_handler t dst h =
  if dst < 0 || dst >= t.n then invalid_arg "Shard_net.set_handler: dst out of range";
  t.handlers.(dst) <- Some h

let send t ~src ~dst ~a ~b ~c ~d ~e =
  if src < 0 || src >= t.n then invalid_arg "Shard_net.send: src out of range";
  if dst < 0 || dst >= t.n then invalid_arg "Shard_net.send: dst out of range";
  if src = dst then invalid_arg "Shard_net.send: src = dst";
  let g_src = t.group.(src) in
  let cell = t.cells.(g_src) in
  let rng = t.rngs.(src) in
  let now = Engine.now (Exec.engine t.exec ~group:g_src) in
  Metrics.tick cell.c_sent;
  Metrics.incr ~by:payload_words cell.c_words;
  (* Flow ids are a pure function of (src, per-src ordinal): sink-level
     allocation would depend on how sends of different pids in a group
     interleave, which the substrate may reorder at equal times. *)
  let flow =
    match t.sinks with
    | Some s ->
        let k = t.flows.(src) in
        t.flows.(src) <- k + 1;
        let flow = (src lsl 40) lor k in
        Trace.emit s.(g_src) ~time:now ~pid:src
          (Trace.Net_send { src; dst; words = payload_words; kind = t.label; flow });
        flow
    | None -> 0
  in
  if Psn_sim.Loss_model.drops t.loss rng then begin
    Metrics.tick cell.c_dropped;
    (match t.sinks with
    | Some s ->
        Trace.emit s.(g_src) ~time:now ~pid:dst
          (Trace.Net_drop { src; dst; kind = t.label; flow })
    | None -> ());
    -1
  end
  else begin
    let delay = Psn_sim.Delay_model.sample t.delay rng in
    Metrics.observe cell.h_delay (Sim_time.to_ms_float delay);
    let at = Sim_time.add now delay in
    Exec.post t.exec ~src_group:g_src ~dst_group:t.group.(dst) ~at ~dst
      ~w0:src ~w1:flow ~w2:a ~w3:b ~w4:c ~w5:d ~w6:e;
    Sim_time.to_ns at
  end

let total f t = List.fold_left (fun acc cell -> acc + f cell) 0 t.uniq
let sent t = total (fun c -> Metrics.counter_value c.c_sent) t
let dropped t = total (fun c -> Metrics.counter_value c.c_dropped) t
let words t = total (fun c -> Metrics.counter_value c.c_words) t
