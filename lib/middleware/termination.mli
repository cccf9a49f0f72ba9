(** Safra's ring-token termination detection for diffusing computations
    (Appendix A's termination-detection use of logical time). *)

type t

val create :
  Psn_sim.Engine.t -> n:int -> delay:Psn_sim.Delay_model.t ->
  on_terminate:(unit -> unit) -> t
(** Over a lossless network. *)

val set_worker : t -> int -> (int -> unit) -> unit
(** Handler run when process i receives work; it may [send_work] before
    falling passive again. *)

val send_work : t -> src:int -> dst:int -> unit

val start : t -> initial:int list -> unit
(** Run the initial workers, then launch the detection token from 0. *)

val announced : t -> bool
val rounds : t -> int
(** Extra token rounds needed beyond the first. *)

val in_flight : t -> int
(** Ground truth (test oracle): outstanding work messages. *)

val all_passive : t -> bool
