(** Dynamic attribute values for world objects and sensed variables. *)

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | String of string

exception Type_error of string

val equal : t -> t -> bool
(** Structural, with numeric Int/Float coercion. *)

val to_float : t -> float
(** Raises {!Type_error} on non-numeric values. *)

val to_bool : t -> bool
val to_int : t -> int

val compare_num : t -> t -> int
(** Numeric comparison with coercion; strings and bools compare within
    their own type. Raises {!Type_error} on incomparable values. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
