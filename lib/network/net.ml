(* Asynchronous message passing over the logical overlay L (paper §2.1).

   Polymorphic in the payload so clocks/detectors define their own message
   types.  Delivery samples the delay model per message (per receiver for
   broadcasts, as in a real wireless medium where each receiver decodes
   independently); the loss model drops messages before delivery.  The
   overlay may be restricted to a topology graph, in which case unicast to
   a non-neighbor fails loudly and broadcast reaches neighbors only —
   flooding, if needed, is a protocol concern, not a medium concern.

   Costs are kept in the engine's metrics registry under
   [net.<label>.*], so a run snapshot breaks traffic down by layer
   (detector strobes vs middleware markers vs application data); [label]
   also tags the trace events as the message kind. *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Graph = Psn_util.Graph
module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics

(* A pooled delivery record: the [d_fire] closure is allocated once per
   record (closing over the record itself) and reused across messages, so
   a transmit — and in particular each receiver of a [broadcast] — costs
   no closure allocation after warm-up. *)
type 'a delivery = {
  mutable d_src : int;
  mutable d_dst : int;
  mutable d_flow : int;
  mutable d_payload : 'a;
  d_fire : unit -> unit;
}

type 'a t = {
  engine : Engine.t;
  n : int;
  delay : Psn_sim.Delay_model.t;
  loss : Psn_sim.Loss_model.t;
  rng : Psn_util.Rng.t;
  handlers : (src:int -> 'a -> unit) option array;
  payload_words : 'a -> int;
  topology : Graph.t option;
  label : string;
  c_sent : Metrics.counter;       (* transmissions attempted (per receiver) *)
  c_delivered : Metrics.counter;
  c_dropped : Metrics.counter;
  c_words : Metrics.counter;      (* abstract payload words transmitted *)
  h_delay : Metrics.histogram;    (* sampled per-message delay, ms *)
  g_in_flight : Metrics.gauge;    (* messages scheduled but not yet delivered *)
  g_in_flight_peak : Metrics.gauge;  (* high-watermark of the above *)
  mutable in_flight : int;
  mutable in_flight_peak : int;
  fifo : Sim_time.t array array option;
      (* per-(src,dst) last scheduled delivery time: when present, a later
         send is never delivered before an earlier one on the same channel
         (FIFO channels, as Chandy–Lamport requires) *)
  mutable pool : 'a delivery array;   (* free stack of delivery records *)
  mutable pool_len : int;
}

let create ?loss ?topology ?(fifo = false) ?(payload_words = fun _ -> 1)
    ?(label = "net") engine ~n ~delay =
  if n <= 0 then invalid_arg "Net.create: n must be positive";
  (match topology with
  | Some g when Graph.size g <> n -> invalid_arg "Net.create: topology size mismatch"
  | _ -> ());
  let m = Engine.metrics engine in
  let metric suffix = Printf.sprintf "net.%s.%s" label suffix in
  {
    engine;
    n;
    delay;
    loss = (match loss with Some l -> l | None -> Psn_sim.Loss_model.no_loss);
    rng = Psn_util.Rng.split (Engine.rng engine);
    handlers = Array.make n None;
    payload_words;
    topology;
    label;
    c_sent = Metrics.counter m (metric "sent");
    c_delivered = Metrics.counter m (metric "delivered");
    c_dropped = Metrics.counter m (metric "dropped");
    c_words = Metrics.counter m (metric "words");
    h_delay = Metrics.histogram m ~lo:0.0 ~hi:1000.0 ~bins:20 (metric "delay_ms");
    g_in_flight = Metrics.gauge m (metric "in_flight");
    g_in_flight_peak = Metrics.gauge m (metric "in_flight_peak");
    in_flight = 0;
    in_flight_peak = 0;
    fifo = (if fifo then Some (Array.make_matrix n n Sim_time.zero) else None);
    pool = [||];
    pool_len = 0;
  }

let set_handler t dst handler =
  if dst < 0 || dst >= t.n then invalid_arg "Net.set_handler: dst out of range";
  t.handlers.(dst) <- Some handler

let check_link t src dst =
  match t.topology with
  | None -> true
  | Some g -> Graph.has_edge g src dst

let release t r =
  if t.pool_len = Array.length t.pool then begin
    let np = Array.make (2 * max 4 (Array.length t.pool)) r in
    Array.blit t.pool 0 np 0 t.pool_len;
    t.pool <- np
  end;
  t.pool.(t.pool_len) <- r;
  t.pool_len <- t.pool_len + 1

(* Delivery body: same metric/trace order as the former per-message
   closure, so traces and metric snapshots are byte-identical.  The
   record is released before the handler runs (fields copied to locals
   first), so re-entrant sends from the handler can reuse it. *)
let deliver t r =
  let src = r.d_src and dst = r.d_dst and flow = r.d_flow in
  let payload = r.d_payload in
  Metrics.incr t.c_delivered;
  t.in_flight <- t.in_flight - 1;
  Metrics.set t.g_in_flight (float_of_int t.in_flight);
  (match Engine.tracer t.engine with
  | Some s ->
      Trace.emit s ~time:(Engine.now t.engine) ~pid:dst
        (Trace.Net_deliver { src; dst; kind = t.label; flow })
  | None -> ());
  release t r;
  match t.handlers.(dst) with
  | Some handler -> handler ~src payload
  | None -> ()

let acquire t ~src ~dst ~flow payload =
  if t.pool_len = 0 then
    let rec r =
      { d_src = src; d_dst = dst; d_flow = flow; d_payload = payload;
        d_fire = (fun () -> deliver t r) }
    in
    r
  else begin
    t.pool_len <- t.pool_len - 1;
    let r = t.pool.(t.pool_len) in
    r.d_src <- src;
    r.d_dst <- dst;
    r.d_flow <- flow;
    r.d_payload <- payload;
    r
  end

let transmit t ~src ~dst payload =
  let words = t.payload_words payload in
  Metrics.incr t.c_sent;
  Metrics.incr ~by:words t.c_words;
  (* The correlation id shared by this message's send and deliver/drop
     records.  Allocated from the sink only when tracing, so untraced
     runs stay allocation- and counter-free; allocation order is
     deterministic, being part of the event order. *)
  let flow =
    match Engine.tracer t.engine with
    | Some s ->
        let flow = Trace.fresh_flow s in
        Trace.emit s ~time:(Engine.now t.engine) ~pid:src
          (Trace.Net_send { src; dst; words; kind = t.label; flow });
        flow
    | None -> 0
  in
  if Psn_sim.Loss_model.drops t.loss t.rng then begin
    Metrics.incr t.c_dropped;
    match Engine.tracer t.engine with
    | Some s ->
        Trace.emit s ~time:(Engine.now t.engine) ~pid:dst
          (Trace.Net_drop { src; dst; kind = t.label; flow })
    | None -> ()
  end
  else begin
    let d = Psn_sim.Delay_model.sample t.delay t.rng in
    Metrics.observe t.h_delay (Sim_time.to_ms_float d);
    let at = Sim_time.add (Engine.now t.engine) d in
    let at =
      match t.fifo with
      | None -> at
      | Some last ->
          (* Clamp behind the previous delivery on this channel. *)
          let at = Sim_time.max at last.(src).(dst) in
          last.(src).(dst) <- at;
          at
    in
    t.in_flight <- t.in_flight + 1;
    Metrics.set t.g_in_flight (float_of_int t.in_flight);
    if t.in_flight > t.in_flight_peak then begin
      t.in_flight_peak <- t.in_flight;
      Metrics.set t.g_in_flight_peak (float_of_int t.in_flight_peak)
    end;
    let r = acquire t ~src ~dst ~flow payload in
    Engine.schedule_at_unit t.engine at r.d_fire
  end

let send t ~src ~dst payload =
  if src < 0 || src >= t.n then invalid_arg "Net.send: src out of range";
  if dst < 0 || dst >= t.n then invalid_arg "Net.send: dst out of range";
  if src = dst then invalid_arg "Net.send: src = dst";
  if not (check_link t src dst) then
    invalid_arg "Net.send: no link between src and dst in the overlay";
  transmit t ~src ~dst payload

(* System-wide broadcast, as required by the strobe protocols (SSC1/SVC1).
   With a topology, reaches direct neighbors only. *)
let broadcast t ~src payload =
  if src < 0 || src >= t.n then invalid_arg "Net.broadcast: src out of range";
  match t.topology with
  | None ->
      for dst = 0 to t.n - 1 do
        if dst <> src then transmit t ~src ~dst payload
      done
  | Some g -> List.iter (fun dst -> transmit t ~src ~dst payload) (Graph.neighbors g src)

let sent t = Metrics.counter_value t.c_sent
let delivered t = Metrics.counter_value t.c_delivered
let dropped t = Metrics.counter_value t.c_dropped
let words_transmitted t = Metrics.counter_value t.c_words
