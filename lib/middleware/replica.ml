(* Replicated-file consistency with version vectors and physical freshness.

   Appendix A lists "maintaining consistency of replicated files" among
   the vector-time classics, and §3.2.1.b.ii motivates *physical* vector
   clocks exactly here: "useful when relating the locally observed wall
   times at different locations, in the application predicate, e.g., to
   represent the physical time of the latest update to the versions of a
   file".

   Each replica keeps the file value, a logical version vector (one write
   counter per replica) for dominance/conflict detection, and a physical
   vector of local wall-clock update times for freshness queries.  Writes
   propagate by anti-entropy broadcast; a receiver applies an incoming
   version iff it dominates its own; concurrent versions are conflicts,
   resolved deterministically (larger writer id wins after merging the
   vectors) and counted. *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Net = Psn_network.Net
module Vc = Psn_clocks.Vector_clock
module Physical_clock = Psn_clocks.Physical_clock

type 'v version = {
  value : 'v;
  vv : int array;                (* logical version vector *)
  wall : Sim_time.t array;       (* local wall time of each replica's
                                    latest contributing write *)
  writer : int;                  (* replica that produced this version *)
}

type 'v t = {
  n : int;
  net : 'v version Net.t;
  hw : Physical_clock.t array;
  engine : Engine.t;
  current : 'v version array;    (* per replica *)
  mutable conflicts : int;
  mutable applied : int;
}

let create engine ~n ~delay ~hw ~init =
  if Array.length hw <> n then invalid_arg "Replica.create: clock count mismatch";
  let net =
    Net.create ~payload_words:(fun _ -> (2 * n) + 2) ~label:"replica" engine ~n
      ~delay
  in
  let blank _ =
    { value = init; vv = Array.make n 0; wall = Array.make n Sim_time.zero;
      writer = 0 }
  in
  let t =
    { n; net; hw; engine; current = Array.init n blank; conflicts = 0;
      applied = 0 }
  in
  for dst = 0 to n - 1 do
    Net.set_handler net dst (fun ~src:_ incoming ->
        let mine = t.current.(dst) in
        if Vc.happened_before mine.vv incoming.vv then begin
          t.current.(dst) <- incoming;
          t.applied <- t.applied + 1
        end
        else if Vc.happened_before incoming.vv mine.vv
                || Vc.equal incoming.vv mine.vv then ()
        else begin
          (* Concurrent versions: a genuine replica conflict.  Merge the
             vectors and resolve deterministically by writer id. *)
          t.conflicts <- t.conflicts + 1;
          let vv = Vc.merge mine.vv incoming.vv in
          let wall =
            Array.init t.n (fun k -> Sim_time.max mine.wall.(k) incoming.wall.(k))
          in
          let winner = if incoming.writer > mine.writer then incoming else mine in
          t.current.(dst) <- { value = winner.value; vv; wall; writer = winner.writer }
        end)
  done;
  t

(* Local write at [replica]; propagates to all other replicas. *)
let write t ~replica value =
  if replica < 0 || replica >= t.n then invalid_arg "Replica.write: out of range";
  let prev = t.current.(replica) in
  let vv = Array.copy prev.vv in
  vv.(replica) <- vv.(replica) + 1;
  let wall = Array.copy prev.wall in
  wall.(replica) <- Physical_clock.read t.hw.(replica) ~now:(Engine.now t.engine);
  let version = { value; vv; wall; writer = replica } in
  t.current.(replica) <- version;
  Net.broadcast t.net ~src:replica version

let read t ~replica = t.current.(replica).value
let version t ~replica = t.current.(replica)

(* Freshness predicate (§3.2.1.b.ii): the local wall time of the latest
   update any replica contributed to this version. *)
let latest_update_wall t ~replica =
  Array.fold_left Sim_time.max Sim_time.zero t.current.(replica).wall

(* All replicas hold logically identical versions. *)
let converged t =
  let v0 = t.current.(0).vv in
  Array.for_all (fun v -> Vc.equal v.vv v0) t.current

let conflicts t = t.conflicts
let messages_sent t = Net.sent t.net
