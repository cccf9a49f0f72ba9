(* Typed execution events of the network plane (paper §2.2).

   At each process the local execution is a sequence of states and
   transitions caused by events of five kinds: internal compute (c),
   sense (n), actuate (a), message send (s) and message receive (r).
   Sense and actuate are communications with the clock-less world plane;
   send/receive are in-network control messages. *)

module Sim_time = Psn_sim.Sim_time
module Value = Psn_world.Value

type kind =
  | Compute
  | Sense of { obj : int; attr : string; value : Value.t }
  | Actuate of { obj : int; attr : string; value : Value.t }
  | Send of { dst : int option }  (* None = broadcast *)
  | Receive of { src : int }

type t = {
  proc : int;
  index : int;            (* position in the process's local sequence *)
  time : Sim_time.t;      (* true simulation time (for ground truth only;
                             no process may branch on it) *)
  kind : kind;
  vstamp : int array option;  (* vector timestamp, when a vector clock ran *)
  sstamp : int option;        (* scalar timestamp, when a scalar clock ran *)
}

let make ~proc ~index ~time ~kind ?vstamp ?sstamp () =
  { proc; index; time; kind; vstamp; sstamp }

let is_relevant t =
  (* "Relevant events" in the strobe protocols are the sense events. *)
  match t.kind with Sense _ -> true | Compute | Actuate _ | Send _ | Receive _ -> false

let kind_label t =
  match t.kind with
  | Compute -> "c"
  | Sense _ -> "n"
  | Actuate _ -> "a"
  | Send _ -> "s"
  | Receive _ -> "r"
