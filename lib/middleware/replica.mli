(** Replicated-file consistency: logical version vectors for dominance and
    conflicts, physical vectors for per-site freshness (§3.2.1.b.ii /
    Appendix A). *)

type 'v version = {
  value : 'v;
  vv : int array;
  wall : Psn_sim.Sim_time.t array;
  writer : int;
}

type 'v t

val create :
  Psn_sim.Engine.t -> n:int -> delay:Psn_sim.Delay_model.t ->
  hw:Psn_clocks.Physical_clock.t array -> init:'v -> 'v t
(** The network is lossless; a message costs one value word plus its
    version vector and wall-time vector ([2n + 1] words). *)

val write : 'v t -> replica:int -> 'v -> unit
val read : 'v t -> replica:int -> 'v
val version : 'v t -> replica:int -> 'v version

val latest_update_wall : 'v t -> replica:int -> Psn_sim.Sim_time.t
(** Local wall time of the newest contributing write, per the replica's
    current version — the paper's physical-vector use case. *)

val converged : 'v t -> bool
val conflicts : 'v t -> int
val messages_sent : 'v t -> int
