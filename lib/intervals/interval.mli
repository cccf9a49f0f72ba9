(** Local intervals between successive relevant events at a process, with
    ground-truth endpoint times and the endpoint timestamps assigned by
    whatever clock protocol ran. *)

type t = {
  proc : int;
  seq : int;
  value : Psn_world.Value.t;
  t_lo : Psn_sim.Sim_time.t;
  t_hi : Psn_sim.Sim_time.t;
  v_lo : int array option;
  v_hi : int array option;
  s_lo : int option;
  s_hi : int option;
}

val make :
  proc:int -> seq:int -> value:Psn_world.Value.t -> t_lo:Psn_sim.Sim_time.t ->
  t_hi:Psn_sim.Sim_time.t -> ?v_lo:int array -> ?v_hi:int array -> unit -> t
(** Scalar stamps ([s_lo], [s_hi]) are left [None]; {!of_timeline}
    fills them. *)

val duration : t -> Psn_sim.Sim_time.t
val overlaps_real : t -> t -> bool
val overlap_length : t -> t -> Psn_sim.Sim_time.t
val v_lo_exn : t -> int array
val v_hi_exn : t -> int array
val pp : Format.formatter -> t -> unit

val of_timeline :
  proc:int -> horizon:Psn_sim.Sim_time.t ->
  (Psn_sim.Sim_time.t * Psn_world.Value.t * int array option * int option) list ->
  t list
(** Convert a change-point timeline into the interval sequence, closing the
    last interval at [horizon]. *)
