(* Hybrid logical clock — an extension bridging the paper's two
   implementation axes.

   An HLC stamp (l, c) keeps l within the offset of the local physical
   clock while preserving the logical-clock property
   (e happened-before f  ⇒  hlc(e) < hlc(f)).  It shows how a deployment
   that has *loosely* synchronized physical clocks can get a single time
   axis that degrades gracefully to Lamport behaviour when the physical
   clocks are bad — the middle ground between the paper's §3.2.1.a.(ii)
   and (iii). *)

module Sim_time = Psn_sim.Sim_time

type stamp = {
  l : Sim_time.t;  (* physical component: max physical time seen *)
  c : int;         (* logical tie-breaker *)
}

type t = {
  me : int;
  hw : Physical_clock.t;
  mutable last : stamp;
}

let create ~me hw = { me; hw; last = { l = Sim_time.zero; c = 0 } }

let me t = t.me

let compare_stamp a b =
  let cl = Sim_time.compare a.l b.l in
  if cl <> 0 then cl else Stdlib.compare a.c b.c

(* Local or send event. *)
let tick t ~now =
  let pt = Physical_clock.read t.hw ~now in
  let last = t.last in
  let next =
    if Sim_time.( > ) pt last.l then { l = pt; c = 0 }
    else { l = last.l; c = last.c + 1 }
  in
  t.last <- next;
  next

let send = tick

(* Receive event merging the sender's stamp. *)
let receive t ~now remote =
  let pt = Physical_clock.read t.hw ~now in
  let last = t.last in
  let l' = Sim_time.max pt (Sim_time.max last.l remote.l) in
  let c' =
    if Sim_time.equal l' last.l && Sim_time.equal l' remote.l then
      1 + max last.c remote.c
    else if Sim_time.equal l' last.l then last.c + 1
    else if Sim_time.equal l' remote.l then remote.c + 1
    else 0
  in
  let next = { l = l'; c = c' } in
  t.last <- next;
  next

(* |l - physical reading| is bounded by the clock offsets in the system;
   exposed so tests can check the HLC boundedness property. *)
let physical_divergence t ~now =
  let pt = Physical_clock.read t.hw ~now in
  Float.abs (Sim_time.to_sec_float t.last.l -. Sim_time.to_sec_float pt)
