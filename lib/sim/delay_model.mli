(** Message delay models from the paper's design space (§3.2.2):
    synchronous, asynchronous Δ-bounded, and asynchronous unbounded. *)

type t

val synchronous : t
val bounded_uniform : min:Sim_time.t -> max:Sim_time.t -> t
val bounded_exponential : mean:Sim_time.t -> cap:Sim_time.t -> t
val unbounded_exponential : mean:Sim_time.t -> t
val unbounded_pareto : scale:Sim_time.t -> shape:float -> t

val sample : t -> Psn_util.Rng.t -> Sim_time.t
(** Draw one message delay. *)

val delta : t -> Sim_time.t option
(** The Δ bound, when one exists. *)

val min_delay : t -> Sim_time.t
(** Guaranteed minimum delay: every {!sample} of the model is at least
    this value.  This is the conservative-synchronization lookahead
    bound used by {!Exec.sharded} — a model whose [min_delay] is zero
    offers no lookahead and cannot drive a sharded run. *)

val mean_delay : t -> Sim_time.t
val pp : Format.formatter -> t -> unit
