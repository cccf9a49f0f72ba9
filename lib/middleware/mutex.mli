(** Ricart–Agrawala distributed mutual exclusion on Lamport clocks
    (Appendix A's canonical logical-clock use). *)

type t

val create : Psn_sim.Engine.t -> n:int -> delay:Psn_sim.Delay_model.t -> t

val request : t -> who:int -> grant:(unit -> unit) -> unit
(** Broadcast a timestamped request; [grant] runs when all peers have
    replied. Raises when already requesting or inside. *)

val release : t -> who:int -> unit
(** Leave the critical section, answering deferred requests. *)

val grants : t -> int
