(** The clock-implementation axis of the paper's design space (§3.2.1). *)

type t =
  | Perfect_physical
  | Synced_physical of { eps : Psn_sim.Sim_time.t }
  | Logical_scalar
  | Logical_vector
  | Strobe_scalar
  | Strobe_vector
  | Physical_vector
  | Hybrid_logical of { max_offset : Psn_sim.Sim_time.t; max_drift_ppm : float }
      (** Extension: HLC over unsynchronized drifting hardware clocks. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

type time_model = Single_axis | Partial_order

val time_model : t -> time_model
(** Which of the paper's two time models the clock realizes. *)
