(** Multi-hop flooding broadcast over a (possibly changing) topology, with
    (origin, seq) duplicate suppression. Realizes the strobe protocols'
    system-wide broadcast on non-complete overlays. *)

type 'a t

val create :
  ?loss:Psn_sim.Loss_model.t -> ?payload_words:('a -> int) -> ?label:string ->
  Psn_sim.Engine.t -> topology:Psn_util.Graph.t ->
  delay:Psn_sim.Delay_model.t -> 'a t
(** The topology is read at every hop, so later mutations (churn) affect
    in-flight floods. [label] (default ["flood"]) names the underlying
    medium in metrics and trace events. *)

val set_handler : 'a t -> int -> (origin:int -> 'a -> unit) -> unit
(** Called once per node per flood (duplicates suppressed). *)

val flood : 'a t -> src:int -> 'a -> unit
val messages_sent : 'a t -> int
val words_transmitted : 'a t -> int
val dropped : 'a t -> int
(** Hop messages the loss model dropped. *)
