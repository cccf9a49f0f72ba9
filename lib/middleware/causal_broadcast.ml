(* Causal-order broadcast (Birman–Schiper–Stephenson).

   Appendix A lists "causal memory" and "maintaining consistency of
   replicated files" among vector time's classic middleware uses; causal
   broadcast is their common substrate.  Each broadcast carries the
   sender's vector of *delivered-broadcast* counts; a receiver buffers a
   message from j until it has delivered exactly the broadcasts the
   message causally depends on:

     deliverable at i  ⟺  V[j] = D_i[j] + 1  ∧  ∀k≠j. V[k] ≤ D_i[k]

   where D_i counts broadcasts by each origin that i has delivered. *)

module Engine = Psn_sim.Engine
module Net = Psn_network.Net
module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics
module Stamp_plane = Psn_clocks.Stamp_plane

let trace engine ~pid ev =
  match Engine.tracer engine with
  | Some s -> Trace.emit s ~time:(Engine.now engine) ~pid ev
  | None -> ()

(* Broadcast vectors live in a shared stamp plane; [stamp_h] is the
   origin's broadcast vector, including this one.  Wire size is [n]
   words. *)
type 'a message = {
  origin : int;
  stamp_h : Stamp_plane.handle;
  payload : 'a;
}

type 'a t = {
  n : int;
  engine : Engine.t;
  c_delivered : Metrics.counter;
  net : 'a message Net.t;
  plane : Stamp_plane.t;
  delivered : int array array;        (* delivered.(i).(j) *)
  sent : int array;                   (* broadcasts by each origin *)
  mutable pending : (int * 'a message) list;  (* (dst, msg) buffered *)
  deliver : dst:int -> src:int -> 'a -> unit;
  mutable delivered_total : int;
}

let deliverable t dst (m : 'a message) =
  let d = t.delivered.(dst) in
  (* Fetched per call: a growing [alloc] may have replaced the arena's
     backing since this message was stamped (growth blits, so the row at
     [stamp_h] is wherever the current backing is). *)
  let p = Stamp_plane.backing t.plane in
  let h = m.stamp_h in
  let rec ok k =
    k >= t.n
    || (let v = p.(h + k) in
        (if k = m.origin then v = d.(k) + 1 else v <= d.(k)) && ok (k + 1))
  in
  ok 0

let deliver_one t dst (m : 'a message) =
  t.delivered.(dst).(m.origin) <- t.delivered.(dst).(m.origin) + 1;
  t.delivered_total <- t.delivered_total + 1;
  Metrics.incr t.c_delivered;
  trace t.engine ~pid:dst (Trace.Mark { name = "causal.deliver" });
  t.deliver ~dst ~src:m.origin m.payload

let rec drain t =
  let ready, still =
    List.partition (fun (dst, m) -> deliverable t dst m) t.pending
  in
  t.pending <- still;
  if ready <> [] then begin
    List.iter (fun (dst, m) -> deliver_one t dst m) ready;
    (* Deliveries may have unblocked further buffered messages. *)
    drain t
  end

let create engine ~n ~delay ~deliver () =
  if n < 2 then invalid_arg "Causal_broadcast.create: need >= 2 processes";
  let net =
    Net.create ~payload_words:(fun _ -> 1 + n) ~label:"causal" engine ~n ~delay
  in
  let t =
    {
      n;
      engine;
      c_delivered = Metrics.counter (Engine.metrics engine) "causal.delivered";
      net;
      plane = Stamp_plane.create ~n ();
      delivered = Array.make_matrix n n 0;
      sent = Array.make n 0;
      pending = [];
      deliver;
      delivered_total = 0;
    }
  in
  for dst = 0 to n - 1 do
    Net.set_handler net dst (fun ~src:_ m ->
        (* Fast path: an in-order message with nothing buffered delivers
           straight away — no cons, no [List.partition] rescan.  With
           nothing buffered, the delivery cannot unblock anything, so no
           drain is needed either. *)
        if t.pending == [] && deliverable t dst m then deliver_one t dst m
        else begin
          t.pending <- (dst, m) :: t.pending;
          drain t
        end)
  done;
  t

let broadcast t ~src payload =
  if src < 0 || src >= t.n then invalid_arg "Causal_broadcast.broadcast: src";
  t.sent.(src) <- t.sent.(src) + 1;
  (* The causal past of this broadcast is what [src] has delivered, plus
     its own broadcasts (a process trivially delivers its own). *)
  t.delivered.(src).(src) <- t.delivered.(src).(src) + 1;
  t.delivered_total <- t.delivered_total + 1;
  let stamp_h = Stamp_plane.of_array t.plane t.delivered.(src) in
  Net.broadcast t.net ~src { origin = src; stamp_h; payload }

let buffered t = List.length t.pending
let delivered_count t = t.delivered_total
let messages_sent t = Net.sent t.net
