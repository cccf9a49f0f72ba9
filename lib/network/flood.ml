(* Multi-hop flooding over a (possibly changing) overlay topology.

   The strobe protocols call for a System-wide broadcast; on a real
   wireless sensornet the overlay L is a multi-hop graph, so the broadcast
   is realized by flooding: each node rebroadcasts a flood it has not seen
   before to its current neighbors.  Duplicate suppression is by
   (origin, sequence) pairs: one bit per pair in a per-(node, origin)
   bitset, since each origin numbers its floods densely from 1.  Because
   the topology is read at each hop, flooding composes with overlay
   churn — the paper's "dynamically changing graph". *)

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
  seen : Bytes.t array array;  (* node -> origin -> bit per seq *)
  handlers : (origin:int -> 'a -> unit) option array;
  seqs : int array;
}

(* Sets bit [seq] of [node]'s filter for [origin]; [true] when it was
   clear.  The origin row and the bitset (16 bytes at first) grow by
   doubling. *)
let mark t ~node ~origin ~seq =
  let row = t.seen.(node) in
  let row =
    if origin < Array.length row then row
    else begin
      let len = Array.length row in
      let grown = Array.make (max (origin + 1) (2 * len)) Bytes.empty in
      Array.blit row 0 grown 0 len;
      t.seen.(node) <- grown;
      grown
    end
  in
  let bits = row.(origin) in
  let byte = seq lsr 3 and bit = 1 lsl (seq land 7) in
  if byte < Bytes.length bits && Char.code (Bytes.get bits byte) land bit <> 0
  then false
  else begin
    let bits =
      if byte < Bytes.length bits then bits
      else begin
        let len = Bytes.length bits in
        let grown = Bytes.make (max (byte + 1) (max 16 (2 * len))) '\000' in
        Bytes.blit bits 0 grown 0 len;
        row.(origin) <- grown;
        grown
      end
    in
    Bytes.set bits byte (Char.chr (Char.code (Bytes.get bits byte) lor bit));
    true
  end

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
      seen = Array.make n [||];
      handlers = Array.make n None;
      seqs = Array.make n 0;
    }
  in
  for dst = 0 to n - 1 do
    Net.set_handler net dst (fun ~src:_ msg ->
        if mark t ~node:dst ~origin:msg.origin ~seq:msg.seq then begin
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
  ignore (mark t ~node:src ~origin:src ~seq:msg.seq);
  List.iter
    (fun nb -> Net.send t.net ~src ~dst:nb msg)
    (Graph.neighbors t.topology src)

let messages_sent t = Net.sent t.net
let words_transmitted t = Net.words_transmitted t.net
let dropped t = Net.dropped t.net
