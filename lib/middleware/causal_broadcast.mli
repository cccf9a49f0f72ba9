(** Causal-order broadcast (Birman–Schiper–Stephenson): messages are
    buffered until everything they causally depend on has been delivered. *)

type 'a t

val create :
  Psn_sim.Engine.t -> n:int -> delay:Psn_sim.Delay_model.t ->
  deliver:(dst:int -> src:int -> 'a -> unit) -> unit -> 'a t
(** Broadcast vectors live in a shared {!Psn_clocks.Stamp_plane}:
    messages carry int handles, with no per-message array copy.  The
    network is lossless, and a message costs one payload word plus the
    [n]-word vector. *)

val broadcast : 'a t -> src:int -> 'a -> unit
(** The sender counts as having delivered its own broadcast immediately. *)

val buffered : 'a t -> int
(** Messages currently held back waiting for causal predecessors. *)

val delivered_count : 'a t -> int
