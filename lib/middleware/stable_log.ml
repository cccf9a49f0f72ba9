(* Replicated observation log with matrix-clock garbage collection.

   Appendix A lists garbage collection among the classic vector-time
   middleware uses; the matrix clock is the standard tool: entry s of
   origin o can be discarded once every replica is known to have received
   o's first s entries — i.e. once [Matrix_clock.min_known o >= s].

   Every published observation piggybacks the publisher's matrix stamp;
   quiet nodes can send stamp-only [gossip] messages so knowledge (and
   hence pruning) keeps spreading without application traffic. *)

module Engine = Psn_sim.Engine
module Net = Psn_network.Net
module Matrix_clock = Psn_clocks.Matrix_clock

type 'a msg = {
  stamp : int array array;
  entry : (int * 'a) option;  (* (seq, payload); None = pure gossip *)
}

type 'a node = {
  clock : Matrix_clock.t;
  buffers : (int, (int * 'a) list) Hashtbl.t;  (* origin -> unstable entries *)
  mutable pruned : int;
}

type 'a t = {
  n : int;
  net : 'a msg Net.t;
  nodes : 'a node array;
  seqs : int array;  (* publish counter per origin *)
}

let prune t i =
  let node = t.nodes.(i) in
  Hashtbl.iter
    (fun origin entries ->
      let floor = Matrix_clock.min_known node.clock origin in
      let keep, dead = List.partition (fun (seq, _) -> seq > floor) entries in
      if dead <> [] then begin
        node.pruned <- node.pruned + List.length dead;
        Hashtbl.replace node.buffers origin keep
      end)
    (Hashtbl.copy node.buffers)

let handle t ~dst ~src (m : 'a msg) =
  let node = t.nodes.(dst) in
  Matrix_clock.receive node.clock ~from:src m.stamp;
  (match m.entry with
  | Some (seq, payload) ->
      let existing =
        match Hashtbl.find_opt node.buffers src with Some l -> l | None -> []
      in
      Hashtbl.replace node.buffers src ((seq, payload) :: existing)
  | None -> ());
  prune t dst

let create engine ~n ~delay () =
  if n < 2 then invalid_arg "Stable_log.create: need at least two replicas";
  let words m = (n * n) + (match m.entry with Some _ -> 2 | None -> 0) in
  let net = Net.create ~payload_words:words ~label:"stable-log" engine ~n ~delay in
  let t =
    {
      n;
      net;
      nodes =
        Array.init n (fun me ->
            { clock = Matrix_clock.create ~n ~me; buffers = Hashtbl.create 8;
              pruned = 0 });
      seqs = Array.make n 0;
    }
  in
  for dst = 0 to n - 1 do
    Net.set_handler net dst (fun ~src m -> handle t ~dst ~src m)
  done;
  t

let publish t ~src payload =
  if src < 0 || src >= t.n then invalid_arg "Stable_log.publish: out of range";
  t.seqs.(src) <- t.seqs.(src) + 1;
  let seq = t.seqs.(src) in
  let node = t.nodes.(src) in
  let stamp = Matrix_clock.send node.clock in
  (* The publisher buffers its own entry too until it is system-stable. *)
  let existing =
    match Hashtbl.find_opt node.buffers src with Some l -> l | None -> []
  in
  Hashtbl.replace node.buffers src ((seq, payload) :: existing);
  Net.broadcast t.net ~src { stamp; entry = Some (seq, payload) };
  prune t src

(* Stamp-only exchange so knowledge spreads without application traffic. *)
let gossip t ~src =
  let stamp = Matrix_clock.send t.nodes.(src).clock in
  Net.broadcast t.net ~src { stamp; entry = None };
  prune t src

let buffered_at t i =
  Hashtbl.fold (fun _ l acc -> acc + List.length l) t.nodes.(i).buffers 0

let pruned_at t i = t.nodes.(i).pruned
