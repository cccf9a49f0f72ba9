(* Predicate language over located variables (paper §3.1.2).

   A variable is (name, location): the subscript convention of the paper,
   where x_i is "the number of objects in room i" sensed at process i.
   The language covers both predicate classes the paper singles out:

   - conjunctive:  φ = ∧_i φ_i with each conjunct local to one process
     (e.g. (x_i = 5) ∧ (y_j > 7));
   - relational:   any expression mixing variables of several locations
     (e.g. x_i + y_j > 7, or the exhibition hall's Σ(x_i − y_i) > 200).

   [conjuncts] decides which class an expression falls in by attempting
   the local decomposition; detectors that only handle conjunctive
   predicates use it as their admission check. *)

module Value = Psn_world.Value

type var = {
  name : string;
  loc : int;  (* process where the variable is sensed *)
}

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type arith = Add | Sub | Mul

type t =
  | Const of Value.t
  | Var of var
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * t * t
  | Arith of arith * t * t

(* Convenience constructors. *)
let var ~name ~loc = Var { name; loc }
let int i = Const (Value.Int i)
let float f = Const (Value.Float f)
let bool b = Const (Value.Bool b)
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let not_ a = Not a
let ( ==? ) a b = Cmp (Eq, a, b)
let ( <>? ) a b = Cmp (Ne, a, b)
let ( <? ) a b = Cmp (Lt, a, b)
let ( <=? ) a b = Cmp (Le, a, b)
let ( >? ) a b = Cmp (Gt, a, b)
let ( >=? ) a b = Cmp (Ge, a, b)
let ( +? ) a b = Arith (Add, a, b)
let ( -? ) a b = Arith (Sub, a, b)
let ( *? ) a b = Arith (Mul, a, b)

let sum = function
  | [] -> int 0
  | e :: rest -> List.fold_left ( +? ) e rest

exception Unbound_variable of var

(* Evaluate under an environment giving each located variable a value.

   Operand order is part of the semantics: left operand first, then
   right, then conversions in operand order.  [Compiled] replays this
   exact order, so which exception an ill-typed or partially-bound
   expression raises is identical between the two evaluators — the
   property the differential suite checks constructor-for-constructor. *)
let rec eval ~env expr =
  match expr with
  | Const v -> v
  | Var v -> (
      match env v with Some value -> value | None -> raise (Unbound_variable v))
  | Not e -> Value.Bool (not (Value.to_bool (eval ~env e)))
  | And (a, b) ->
      let va = Value.to_bool (eval ~env a) in
      Value.Bool (va && Value.to_bool (eval ~env b))
  | Or (a, b) ->
      let va = Value.to_bool (eval ~env a) in
      Value.Bool (va || Value.to_bool (eval ~env b))
  | Cmp (op, a, b) ->
      let va = eval ~env a in
      let vb = eval ~env b in
      let c = Value.compare_num va vb in
      let r =
        match op with
        | Eq -> c = 0
        | Ne -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
      in
      Value.Bool r
  | Arith (op, a, b) ->
      let va = eval ~env a in
      let vb = eval ~env b in
      let fa = Value.to_float va in
      let fb = Value.to_float vb in
      let r = match op with Add -> fa +. fb | Sub -> fa -. fb | Mul -> fa *. fb in
      Value.Float r

let eval_bool ~env expr = Value.to_bool (eval ~env expr)

(* The one "unbound means false" rule: a predicate over a variable no
   update has bound yet is not established. *)
let holds ~env expr =
  match eval_bool ~env expr with
  | b -> b
  | exception Unbound_variable _ -> false

(* All located variables mentioned, without duplicates, in first-use order. *)
let vars expr =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Var v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          acc := v :: !acc
        end
    | Not e -> go e
    | And (a, b) | Or (a, b) | Cmp (_, a, b) | Arith (_, a, b) ->
        go a;
        go b
  in
  go expr;
  List.rev !acc

let locations expr =
  List.sort_uniq Stdlib.compare (List.map (fun v -> v.loc) (vars expr))

(* The single location an expression touches, if exactly one. *)
let sole_location expr =
  match locations expr with [ l ] -> Some l | _ -> None

(* Conjunctive decomposition: split top-level ∧ into conjuncts and check
   each is local to one process.  [None] means the predicate is relational
   in the paper's sense. *)
let conjuncts expr =
  let rec split = function
    | And (a, b) -> split a @ split b
    | e -> [ e ]
  in
  let parts = split expr in
  let localized =
    List.map (fun e -> Option.map (fun l -> (l, e)) (sole_location e)) parts
  in
  if List.for_all Option.is_some localized then
    Some (List.map Option.get localized)
  else None

let is_conjunctive expr = Option.is_some (conjuncts expr)

let cmp_to_string = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let arith_to_string = function Add -> "+" | Sub -> "-" | Mul -> "*"

let rec pp ppf = function
  | Const v -> Value.pp ppf v
  | Var v -> Fmt.pf ppf "%s_%d" v.name v.loc
  | Not e -> Fmt.pf ppf "!(%a)" pp e
  | And (a, b) -> Fmt.pf ppf "(%a && %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a || %a)" pp a pp b
  | Cmp (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (cmp_to_string op) pp b
  | Arith (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (arith_to_string op) pp b

let to_string e = Fmt.str "%a" pp e
