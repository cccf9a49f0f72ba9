(* Outcome of one synchronization run: achieved skew and its price.

   The paper's §3.3 argument hinges on exactly these two numbers — "this
   service does not come for free to the application; the lower layers pay
   the cost" — so every protocol reports them uniformly. *)

module Sim_time = Psn_sim.Sim_time

type t = {
  protocol : string;
  n : int;                (* synchronized nodes *)
  eps_max_s : float;      (* max pairwise clock difference after sync, s *)
  eps_rms_s : float;      (* rms pairwise clock difference, s *)
  messages : int;         (* per-receiver transmissions used *)
  words : int;            (* abstract payload words transmitted *)
  duration : Sim_time.t;  (* wall (simulated) time the protocol took *)
}

(* Pairwise corrected-reading spread over a node subset at a probe time. *)
let measure ~protocol ~messages ~words ~duration hw nodes ~now =
  let readings =
    List.map
      (fun i ->
        Sim_time.to_sec_float (Psn_clocks.Physical_clock.read hw.(i) ~now))
      nodes
  in
  let n = List.length readings in
  if n < 2 then invalid_arg "Sync_result.measure: need at least two nodes";
  let eps_max = ref 0.0 and sum_sq = ref 0.0 and pairs = ref 0 in
  List.iteri
    (fun i ri ->
      List.iteri
        (fun j rj ->
          if i < j then begin
            let d = Float.abs (ri -. rj) in
            if d > !eps_max then eps_max := d;
            sum_sq := !sum_sq +. (d *. d);
            incr pairs
          end)
        readings)
    readings;
  {
    protocol;
    n;
    eps_max_s = !eps_max;
    eps_rms_s = sqrt (!sum_sq /. float_of_int !pairs);
    messages;
    words;
    duration;
  }
