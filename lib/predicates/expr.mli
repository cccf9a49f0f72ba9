(** Predicate language over located variables; distinguishes the paper's
    conjunctive and relational predicate classes. *)

type var = { name : string; loc : int }
type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul

type t =
  | Const of Psn_world.Value.t
  | Var of var
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * t * t
  | Arith of arith * t * t

exception Unbound_variable of var

val var : name:string -> loc:int -> t
val int : int -> t
val float : float -> t
val bool : bool -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val not_ : t -> t
val ( ==? ) : t -> t -> t
val ( <>? ) : t -> t -> t
val ( <? ) : t -> t -> t
val ( <=? ) : t -> t -> t
val ( >? ) : t -> t -> t
val ( >=? ) : t -> t -> t
val ( +? ) : t -> t -> t
val ( -? ) : t -> t -> t
val ( *? ) : t -> t -> t
val sum : t list -> t

val eval : env:(var -> Psn_world.Value.t option) -> t -> Psn_world.Value.t
(** Raises {!Unbound_variable} when the environment lacks a variable, and
    [Value.Type_error] on ill-typed expressions. *)

val eval_bool : env:(var -> Psn_world.Value.t option) -> t -> bool

val holds : env:(var -> Psn_world.Value.t option) -> t -> bool
(** [eval_bool], false when a variable is unbound: a predicate is not
    established until every variable it reads is.  Every detector and
    the ground truth read truth this way. *)

val vars : t -> var list
val locations : t -> int list
val sole_location : t -> int option

val conjuncts : t -> (int * t) list option
(** Local-conjunct decomposition; [None] means relational. *)

val is_conjunctive : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
