(** Asynchronous message passing over the logical overlay L, with pluggable
    delay, loss, and (optionally) topology. Polymorphic in the payload. *)

type 'a t

val create :
  ?loss:Psn_sim.Loss_model.t -> ?topology:Psn_util.Graph.t -> ?fifo:bool ->
  ?payload_words:('a -> int) -> ?label:string -> Psn_sim.Engine.t -> n:int ->
  delay:Psn_sim.Delay_model.t -> 'a t
(** [payload_words] sizes payloads for the overhead accounting of E5.
    [fifo] makes each (src, dst) channel deliver in send order (required
    by Chandy–Lamport snapshots); default is unordered delivery.
    [label] (default ["net"]) names this medium in metrics
    ([net.<label>.sent] etc. in the engine's registry) and tags its trace
    events as the message kind, giving per-layer traffic breakdowns. *)

val set_handler : 'a t -> int -> (src:int -> 'a -> unit) -> unit

val send : 'a t -> src:int -> dst:int -> 'a -> unit
(** Raises when src/dst are invalid or not linked in the overlay. *)

val broadcast : 'a t -> src:int -> 'a -> unit
(** System-wide broadcast (per-receiver delay and loss); with a topology,
    direct neighbors only. *)

val sent : 'a t -> int
val delivered : 'a t -> int
val dropped : 'a t -> int
val words_transmitted : 'a t -> int
