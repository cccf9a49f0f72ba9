(** Allen's 13 interval relations on ground-truth (single-axis) time. *)

type relation =
  | Before
  | Meets
  | Overlaps
  | Finished_by
  | Contains
  | Starts
  | Equals
  | Started_by
  | During
  | Finishes
  | Overlapped_by
  | Met_by
  | After

val all : relation list
val to_string : relation -> string
val inverse : relation -> relation

val classify_times :
  Psn_sim.Sim_time.t -> Psn_sim.Sim_time.t -> Psn_sim.Sim_time.t ->
  Psn_sim.Sim_time.t -> relation
(** [classify_times a1 a2 b1 b2] for closed intervals [a1,a2] vs [b1,b2].
    Point intervals are classified by endpoint comparison (meets/met-by
    require positive length). *)

val classify : Interval.t -> Interval.t -> relation

val implies_overlap : relation -> bool
(** Whether the relation guarantees a shared instant. *)
