(** Replicated observation log garbage-collected by matrix clocks: an
    entry is pruned once every replica is known to have it. *)

type 'a t

val create : Psn_sim.Engine.t -> n:int -> delay:Psn_sim.Delay_model.t -> unit -> 'a t
(** The network is lossless; a message costs its [n × n] matrix clock
    plus two words for an entry (its header and a one-word payload). *)

val publish : 'a t -> src:int -> 'a -> unit
val gossip : 'a t -> src:int -> unit
(** Stamp-only broadcast: spreads knowledge so pruning can progress
    without application traffic. *)

val buffered_at : 'a t -> int -> int
(** Unstable (not yet pruned) entries held at a replica. *)

val pruned_at : 'a t -> int -> int
val messages_sent : 'a t -> int
