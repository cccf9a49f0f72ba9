(* Attribute values of world objects and of the local variables sensors
   keep to track them (paper §2.2: "variables are of two kinds").

   A small dynamic type keeps the predicate language (lib/predicates)
   independent of any one scenario's variable set. *)

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | String of string

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Bool x, Bool y -> x = y
  | String x, String y -> String.equal x y
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | _ -> false

(* Numeric view; [None] for bools/strings. *)
let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool _ | String _ -> None

let to_bool_opt = function Bool b -> Some b | Int _ | Float _ | String _ -> None

exception Type_error of string

let to_float v =
  match to_float_opt v with
  | Some f -> f
  | None -> raise (Type_error "expected a numeric value")

let to_bool v =
  match to_bool_opt v with
  | Some b -> b
  | None -> raise (Type_error "expected a boolean value")

let to_int = function
  | Int i -> i
  | Float f -> int_of_float f
  | Bool _ | String _ -> raise (Type_error "expected an integer value")

(* Total order used only for comparison operators in predicates; numeric
   values compare numerically, same-type values structurally. *)
let compare_num a b =
  match (to_float_opt a, to_float_opt b) with
  | Some x, Some y -> Stdlib.compare x y
  | _ -> (
      match (a, b) with
      | String x, String y -> String.compare x y
      | Bool x, Bool y -> Stdlib.compare x y
      | _ -> raise (Type_error "incomparable values"))

let pp ppf = function
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%g" f
  | Bool b -> Fmt.bool ppf b
  | String s -> Fmt.pf ppf "%S" s

let to_string v = Fmt.str "%a" pp v
