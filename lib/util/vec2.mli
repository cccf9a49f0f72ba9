(** 2D points/vectors for mobility and sensing-range geometry. *)

type t = { x : float; y : float }

val make : float -> float -> t
val zero : t
val x : t -> float
val y : t -> float
val dot : t -> t -> float
val norm : t -> float
val dist : t -> t -> float
val dist2 : t -> t -> float

val lerp : t -> t -> float -> t
(** [lerp a b t] interpolates from [a] (t=0) to [b] (t=1). *)

val normalize : t -> t
(** Unit vector; [zero] maps to [zero]. *)

val equal : t -> t -> bool
