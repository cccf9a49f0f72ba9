(** Drifting hardware clock and its synchronized view.

    Models the paper's imperfectly synchronized physical scalar clocks:
    fixed offset + constant drift, with corrections installed by a sync
    protocol and residual skew ε between corrections. *)

type t

val create :
  Psn_util.Rng.t -> max_offset:Psn_sim.Sim_time.t -> max_drift_ppm:float -> t
(** Random offset in [±max_offset], drift in [±max_drift_ppm]; raw
    readings are quantized to 1 ns. *)

val perfect : unit -> t
(** Reads true time exactly — the pervasive-computing literature's
    idealization the paper calls impractical. *)

val synced_within : Psn_util.Rng.t -> eps:Psn_sim.Sim_time.t -> t
(** True time plus a fixed per-process error uniform in [±ε/2]; the
    abstraction used by the Mayo–Kearns race analysis. *)

val read_raw : t -> now:Psn_sim.Sim_time.t -> Psn_sim.Sim_time.t
(** Uncorrected hardware reading. *)

val read : t -> now:Psn_sim.Sim_time.t -> Psn_sim.Sim_time.t
(** Reading with the installed correction applied. *)

val apply_correction :
  t -> now:Psn_sim.Sim_time.t -> offset_ns:float -> drift_ppm:float -> unit

val adjust_offset_ns : t -> float -> unit
(** Add a delta to the installed offset correction (compose sync rounds). *)

val error_sec : t -> now:Psn_sim.Sim_time.t -> float
(** Signed error of [read] vs true time, seconds. *)
