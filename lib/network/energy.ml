(* Radio energy accounting.

   The paper's §3.3 limitation #1 is explicitly economic: synchronized
   clock service "does not come for free to the application; the lower
   layers pay the cost ... it may not be affordable (in terms of energy
   consumption)".  This module prices the radio: transmit and receive per
   word, plus time-based listen/sleep power, in abstract millijoules.
   The default ratios are loosely CC2420-class (tx ≈ rx per byte; idle
   listening dominates everything at low traffic). *)

module Sim_time = Psn_sim.Sim_time

type cost = {
  tx_per_word : float;    (* mJ per transmitted word *)
  rx_per_word : float;    (* mJ per received word *)
  listen_per_sec : float; (* mJ per second of idle listening *)
  sleep_per_sec : float;  (* mJ per second asleep *)
}

(* CC2420-flavoured ratios: listening costs about as much per second as
   sending ~60 words; sleeping is three orders of magnitude cheaper. *)
let default_cost =
  { tx_per_word = 0.01; rx_per_word = 0.011; listen_per_sec = 0.6;
    sleep_per_sec = 0.0006 }

(* Accumulated mJ per node, priced at [default_cost]. *)
type t = { per_node : float array }

let create ~n () =
  if n <= 0 then invalid_arg "Energy.create: n must be positive";
  { per_node = Array.make n 0.0 }

let check t node =
  if node < 0 || node >= Array.length t.per_node then
    invalid_arg "Energy: node out of range"

let charge_tx t node ~words =
  check t node;
  t.per_node.(node) <-
    t.per_node.(node) +. (float_of_int words *. default_cost.tx_per_word)

let charge_rx t node ~words =
  check t node;
  t.per_node.(node) <-
    t.per_node.(node) +. (float_of_int words *. default_cost.rx_per_word)

(* Time-based charge: [awake] seconds of listening + the rest sleeping. *)
let charge_radio_time t node ~awake ~asleep =
  check t node;
  t.per_node.(node) <-
    t.per_node.(node)
    +. (Sim_time.to_sec_float awake *. default_cost.listen_per_sec)
    +. (Sim_time.to_sec_float asleep *. default_cost.sleep_per_sec)

let node_total t node =
  check t node;
  t.per_node.(node)

let total t = Array.fold_left ( +. ) 0.0 t.per_node
