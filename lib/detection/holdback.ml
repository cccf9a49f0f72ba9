(* Hold-back front end of the Exec detectors: transport, clocks, wire
   format, ground truth and the arrival-armed flush (see the .mli). *)

module Engine = Psn_sim.Engine
module Exec = Psn_sim.Exec
module Sim_time = Psn_sim.Sim_time
module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics
module Value = Psn_world.Value
module Physical_clock = Psn_clocks.Physical_clock
module Shard_net = Psn_network.Shard_net

(* Each source may use up to [max_vars] distinct variables; the name
   index rides in the low bits of the seq lane so the checker can
   reconstruct the update without a string on the wire. *)
let max_vars = 4
let var_bits = 2

type t = {
  exec : Exec.t;
  who : string;
  n : int;
  group_of : int -> int;
  hold : Sim_time.t;
  flush_period : Sim_time.t;
  net : Shard_net.t;
  sinks : Trace.sink array option;
  clocks : Physical_clock.t array;
  vars : string array array;            (* pid -> var slots, set at 1st emit *)
  seqs : int array;                     (* per-source update sequence *)
  logs : int array array;               (* per-source ground truth *)
  pend : Pending_arena.t;               (* checker-local *)
  mutable apply : now:Sim_time.t -> int -> unit;  (* set by [on_flush] *)
  c_updates : Metrics.counter array;    (* per group *)
}

let mix_seed seed pid =
  Int64.add seed (Int64.mul (Int64.of_int (pid + 1)) 0xC2B2AE3D27D4EB4FL)

let create ?loss ?sinks exec ~who ~label ~updates_metric ~n ~groups ~group_of
    ~eps ~hold ~flush_period ~delay =
  if n <= 0 then invalid_arg (who ^ ".create: n must be positive");
  if groups <= 0 then invalid_arg (who ^ ".create: groups must be positive");
  if Sim_time.(flush_period <= Sim_time.zero) then
    invalid_arg (who ^ ".create: flush_period must be positive");
  if Sim_time.(hold < Sim_time.zero) then
    invalid_arg (who ^ ".create: hold must not be negative");
  for pid = 0 to n - 1 do
    let g = group_of pid in
    if g < 0 || g >= groups then
      invalid_arg
        (Printf.sprintf "%s.create: group_of %d = %d, outside 0 .. %d" who pid
           g (groups - 1))
  done;
  let seed = Exec.seed exec in
  let net =
    Shard_net.create ?loss ~label ?sinks exec ~n:(n + 1) ~groups
      ~group_of:(fun pid -> if pid = n then 0 else group_of pid)
      ~delay ()
  in
  let clocks =
    Array.init n (fun pid ->
        Physical_clock.synced_within
          (Psn_util.Rng.create ~seed:(mix_seed seed pid) ())
          ~eps)
  in
  {
    exec;
    who;
    n;
    group_of;
    hold;
    flush_period;
    net;
    sinks;
    clocks;
    vars = Array.init n (fun _ -> Array.make max_vars "");
    seqs = Array.make n 0;
    logs = Array.make n [||];
    pend = Pending_arena.create ();
    apply = (fun ~now:_ _ -> ());
    c_updates =
      Array.init groups (fun g ->
          Metrics.counter (Engine.metrics (Exec.engine exec ~group:g))
            updates_metric);
  }

let net t = t.net
let pending t = t.pend
let var_name t ~src ~var_idx = t.vars.(src).(var_idx)

(* The slot holding [var], else the first free one, else [max_vars]. *)
let slot_of names var =
  let rec go i =
    if i >= max_vars || String.equal names.(i) var || String.equal names.(i) ""
    then i
    else go (i + 1)
  in
  go 0

let var_slot t ~src var =
  if src < 0 || src >= t.n then -1
  else
    let i = slot_of t.vars.(src) var in
    if i < max_vars && String.equal t.vars.(src).(i) var then i else -1

(* Ground truth: entry [seq] of a source's log is two ints, the value
   and the sense time in ns with the variable slot in its low [var_bits]
   (the wire lane packs [seq] the same way), so sense times stop at
   [sense_limit], 2^60 ns or about 36 years.  The log doubles as it
   fills; only the source's group writes it. *)
let sense_limit = 1 lsl (Sys.int_size - 1 - var_bits)

let log_append t ~src ~seq ~value ~sense ~var_idx =
  let log = t.logs.(src) in
  let log =
    if 2 * seq < Array.length log then log
    else begin
      let grown = Array.make (max 16 (2 * Array.length log)) 0 in
      Array.blit log 0 grown 0 (Array.length log);
      t.logs.(src) <- grown;
      grown
    end
  in
  log.(2 * seq) <- value;
  log.((2 * seq) + 1) <- (sense lsl var_bits) lor var_idx

let admit t ~src ~var ~value =
  if src < 0 || src >= t.n then invalid_arg (t.who ^ ".emit: src out of range");
  let names = t.vars.(src) in
  let var_idx = slot_of names var in
  if var_idx >= max_vars then
    invalid_arg (t.who ^ ".emit: more than 4 variables on one process");
  (* Written once, by the source's group; the checker reads it only at
     delivery, a window after the write. *)
  if String.equal names.(var_idx) "" then names.(var_idx) <- var;
  let g = t.group_of src in
  let sense = Sim_time.to_ns (Engine.now (Exec.engine t.exec ~group:g)) in
  if sense >= sense_limit then
    invalid_arg (t.who ^ ".emit: sense time past 2^60 ns");
  let seq = t.seqs.(src) in
  t.seqs.(src) <- seq + 1;
  log_append t ~src ~seq ~value ~sense ~var_idx;
  Metrics.tick t.c_updates.(g);
  (seq lsl var_bits) lor var_idx

let send t ~src ~lane ~value ~vh ~tick =
  let g = t.group_of src in
  let now = Engine.now (Exec.engine t.exec ~group:g) in
  let stamp = Sim_time.to_ns (Physical_clock.read t.clocks.(src) ~now) in
  (match t.sinks with
  | Some s -> Trace.emit s.(g) ~time:now ~pid:src tick
  | None -> ());
  Shard_net.send t.net ~src ~dst:t.n ~a:value ~b:now ~c:stamp ~d:lane ~e:vh

(* One flush is scheduled on the checker's engine exactly while the
   arena holds something, at the first grid point k * flush_period
   (k >= 1) at or after the oldest arrival's [recv + hold]: the tick of
   a fixed schedule that would first have taken it, so every batch
   keeps that schedule's time and contents and none is empty. *)
let rec arm t ~recv =
  let p = Sim_time.to_ns t.flush_period in
  let due = recv + Sim_time.to_ns t.hold in
  Engine.schedule_at_unit (Exec.engine t.exec ~group:0)
    (Sim_time.of_ns (max p ((due + p - 1) / p * p)))
    (fun () -> flush t)

and flush t =
  let now = Engine.now (Exec.engine t.exec ~group:0) in
  let cutoff = Sim_time.to_ns now - Sim_time.to_ns t.hold in
  let m = Pending_arena.take_ready t.pend ~cutoff in
  if Pending_arena.pending t.pend > 0 then
    arm t ~recv:(Pending_arena.head_recv t.pend);
  t.apply ~now m

(* Lanes: value, sense time, stamp, lane, detector word. *)
let on_arrival t hook =
  let checker = Exec.engine t.exec ~group:0 in
  Shard_net.set_handler t.net t.n (fun ~src ~a ~b ~c ~d ~e ->
      let seq = d asr var_bits in
      hook ~src ~seq ~vh:e;
      let recv = Sim_time.to_ns (Engine.now checker) in
      let idle = Pending_arena.pending t.pend = 0 in
      Pending_arena.add t.pend ~recv ~src ~value:a ~sense:b ~stamp:c ~seq
        ~var_idx:(d land (max_vars - 1));
      if idle then arm t ~recv)

let on_flush t apply = t.apply <- apply

let flush_all t apply =
  apply
    ~now:(Engine.now (Exec.engine t.exec ~group:0))
    (Pending_arena.take_ready t.pend ~cutoff:max_int)

let update_count t = Array.fold_left ( + ) 0 t.seqs

let updates t =
  let all = Array.make (update_count t) Observation.dummy in
  let k = ref 0 in
  for src = 0 to t.n - 1 do
    let log = t.logs.(src) in
    for seq = 0 to t.seqs.(src) - 1 do
      let w = log.((2 * seq) + 1) in
      all.(!k) <-
        {
          Observation.src;
          var = t.vars.(src).(w land (max_vars - 1));
          value = Value.Int log.(2 * seq);
          seq;
          sense_time = Sim_time.of_ns (w lsr var_bits);
        };
      incr k
    done
  done;
  Array.stable_sort Ground_truth.compare_updates all;
  Array.to_list all
