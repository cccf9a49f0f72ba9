(* Ricart–Agrawala distributed mutual exclusion on Lamport clocks.

   Appendix A (1.d): Lamport's logical clock is used "to enforce mutual
   exclusion across the distributed system or to satisfy fairness of
   requests" — this is the canonical algorithm doing exactly that.  A
   requester broadcasts (stamp, id) and enters when all n−1 peers have
   replied; a peer defers its reply while it is inside or has an older
   (smaller (stamp, id)) outstanding request of its own.  Requests are
   served in Lamport total order, which is the fairness property the
   tests check. *)

module Engine = Psn_sim.Engine
module Net = Psn_network.Net
module Lamport = Psn_clocks.Lamport
module Trace = Psn_obs.Trace

let trace engine ~pid ev =
  match Engine.tracer engine with
  | Some s -> Trace.emit s ~time:(Engine.now engine) ~pid ev
  | None -> ()

type msg =
  | Request of { stamp : int }
  | Reply

type node = {
  clock : Lamport.t;
  mutable requesting : (int * (unit -> unit)) option;
      (* (request stamp, grant continuation) *)
  mutable in_cs : bool;
  mutable replies_needed : int;
  mutable deferred : int list;  (* peers awaiting our reply *)
}

type t = {
  n : int;
  engine : Engine.t;
  net : msg Net.t;
  nodes : node array;
  mutable grants : int;
}

(* (stamp, id) total order: the fairness key. *)
let precedes (s1, p1) (s2, p2) = s1 < s2 || (s1 = s2 && p1 < p2)

let send_reply t ~src ~dst =
  ignore (Lamport.send t.nodes.(src).clock);
  Net.send t.net ~src ~dst Reply

let handle t ~dst ~src msg =
  let me = t.nodes.(dst) in
  match msg with
  | Request { stamp } ->
      ignore (Lamport.receive me.clock stamp);
      let defer =
        me.in_cs
        ||
        match me.requesting with
        | Some (my_stamp, _) -> precedes (my_stamp, dst) (stamp, src)
        | None -> false
      in
      if defer then me.deferred <- src :: me.deferred
      else send_reply t ~src:dst ~dst:src
  | Reply -> (
      ignore (Lamport.tick me.clock);
      match me.requesting with
      | Some (_, grant) ->
          me.replies_needed <- me.replies_needed - 1;
          if me.replies_needed = 0 then begin
            me.in_cs <- true;
            me.requesting <- None;
            t.grants <- t.grants + 1;
            (* Critical section: grant -> release spans engine events
               (messages fly in between), hence the window lane. *)
            trace t.engine ~pid:dst
              (Trace.Span_begin { name = "mutex.cs"; lane = Trace.lane_window });
            grant ()
          end
      | None -> ())

let create engine ~n ~delay =
  if n < 2 then invalid_arg "Mutex.create: need at least two processes";
  let net = Net.create ~payload_words:(fun _ -> 2) ~label:"mutex" engine ~n ~delay in
  let t =
    {
      n;
      engine;
      net;
      nodes =
        Array.init n (fun me ->
            {
              clock = Lamport.create ~me;
              requesting = None;
              in_cs = false;
              replies_needed = 0;
              deferred = [];
            });
      grants = 0;
    }
  in
  for dst = 0 to n - 1 do
    Net.set_handler net dst (fun ~src msg -> handle t ~dst ~src msg)
  done;
  t

let request t ~who ~grant =
  if who < 0 || who >= t.n then invalid_arg "Mutex.request: out of range";
  let me = t.nodes.(who) in
  if me.in_cs || me.requesting <> None then
    invalid_arg "Mutex.request: already requesting or inside";
  let stamp = Lamport.send me.clock in
  me.requesting <- Some (stamp, grant);
  me.replies_needed <- t.n - 1;
  Net.broadcast t.net ~src:who (Request { stamp })

let release t ~who =
  let me = t.nodes.(who) in
  if not me.in_cs then invalid_arg "Mutex.release: not in critical section";
  me.in_cs <- false;
  trace t.engine ~pid:who
    (Trace.Span_end { name = "mutex.cs"; lane = Trace.lane_window });
  let waiting = List.rev me.deferred in
  me.deferred <- [];
  List.iter (fun dst -> send_reply t ~src:who ~dst) waiting

let grants t = t.grants
