(* Multi-hop flooding over a (possibly changing) overlay topology.

   The strobe protocols call for a System-wide broadcast; on a real
   wireless sensornet the overlay L is a multi-hop graph, so the broadcast
   is realized by flooding: each node rebroadcasts a flood it has not seen
   before to its current neighbors.  Duplicate suppression is by
   (origin, sequence) pairs.  Because the topology is read at each hop,
   flooding composes with overlay churn — the paper's "dynamically
   changing graph". *)

module Engine = Psn_sim.Engine
module Graph = Psn_util.Graph

type 'a flood_msg = {
  origin : int;
  seq : int;
  payload : 'a;
}

type 'a t = {
  net : 'a flood_msg Net.t;
  topology : Graph.t;
  n : int;
  seen : (int * int, unit) Hashtbl.t array;  (* per-node duplicate filter *)
  handlers : (origin:int -> 'a -> unit) option array;
  seqs : int array;
}

let create ?loss ?(payload_words = fun _ -> 1) ?(label = "flood") engine
    ~topology ~delay =
  let n = Graph.size topology in
  if n <= 0 then invalid_arg "Flood.create: empty topology";
  let net =
    Net.create ?loss ~topology
      ~payload_words:(fun m -> payload_words m.payload + 2)
      ~label engine ~n ~delay
  in
  let t =
    {
      net;
      topology;
      n;
      seen = Array.init n (fun _ -> Hashtbl.create 64);
      handlers = Array.make n None;
      seqs = Array.make n 0;
    }
  in
  for dst = 0 to n - 1 do
    Net.set_handler net dst (fun ~src:_ msg ->
        let key = (msg.origin, msg.seq) in
        if not (Hashtbl.mem t.seen.(dst) key) then begin
          Hashtbl.replace t.seen.(dst) key ();
          (match t.handlers.(dst) with
          | Some handler -> handler ~origin:msg.origin msg.payload
          | None -> ());
          (* Rebroadcast to current neighbors (topology read now). *)
          List.iter
            (fun nb -> Net.send net ~src:dst ~dst:nb msg)
            (Graph.neighbors t.topology dst)
        end)
  done;
  t

let set_handler t node handler =
  if node < 0 || node >= t.n then invalid_arg "Flood.set_handler: out of range";
  t.handlers.(node) <- Some handler

(* Originate a flood; the originator's own handler is NOT called (as with
   Net.broadcast, senders know their own data). *)
let flood t ~src payload =
  if src < 0 || src >= t.n then invalid_arg "Flood.flood: src out of range";
  t.seqs.(src) <- t.seqs.(src) + 1;
  let msg = { origin = src; seq = t.seqs.(src); payload } in
  Hashtbl.replace t.seen.(src) (msg.origin, msg.seq) ();
  List.iter
    (fun nb -> Net.send t.net ~src ~dst:nb msg)
    (Graph.neighbors t.topology src)

let messages_sent t = Net.sent t.net
let words_transmitted t = Net.words_transmitted t.net
let dropped t = Net.dropped t.net
let topology t = t.topology
