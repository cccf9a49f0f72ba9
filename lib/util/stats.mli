(** Streaming (Welford) and batch statistics for the experiment harness. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int

val mean : t -> float
(** [nan] when empty. *)

val min_value : t -> float
val max_value : t -> float

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two samples. *)

val stddev : t -> float

val merge : t -> t -> t
(** Combine two accumulators as if their samples were interleaved. *)

val of_array : float array -> t

val percentile : float array -> float -> float
(** [percentile xs p] with linear interpolation; [p] in [\[0,100\]]. *)

val median : float array -> float

(** Fixed-range histogram. *)
type histogram

val histogram_create : lo:float -> hi:float -> bins:int -> histogram
val histogram_add : histogram -> float -> unit
val histogram_bins : histogram -> int array
val histogram_underflow : histogram -> int
val histogram_overflow : histogram -> int
val histogram_total : histogram -> int
