(* The checker's evolving view of the global state.

   Applies updates one at a time, reporting the predicate transition each
   causes.  Keeps the previous value of every applied update so race
   analyses can ask "would φ still hold had that concurrent update not
   been applied?" — the consensus test behind the borderline bin. *)

module Expr = Psn_predicates.Expr
module Value = Psn_world.Value

type transition = Rose | Fell | Same

type t = {
  predicate : Expr.t;
  env : (Expr.var, Value.t) Hashtbl.t;
  env_fn : Expr.var -> Value.t option; (* hoisted: one lookup closure per checker *)
  mutable holds : bool;
}

let create ?(init = []) predicate =
  let env = Hashtbl.create 16 in
  List.iter (fun (v, value) -> Hashtbl.replace env v value) init;
  let t = { predicate; env; env_fn = Hashtbl.find_opt env; holds = false } in
  t.holds <- Expr.holds ~env:t.env_fn predicate;
  t

let holds t = t.holds

let value_of t v = Hashtbl.find_opt t.env v

(* Apply an update; returns the transition and the variable's previous
   value (for later race reverts). *)
let apply t (u : Observation.update) =
  let var = Observation.located u in
  let prev = Hashtbl.find_opt t.env var in
  Hashtbl.replace t.env var u.value;
  let now_holds = Expr.holds ~env:t.env_fn t.predicate in
  let transition =
    match (t.holds, now_holds) with
    | false, true -> Rose
    | true, false -> Fell
    | _ -> Same
  in
  t.holds <- now_holds;
  (transition, prev)

(* Evaluate φ with one variable temporarily overridden ([None] = unbound).
   The committed state is untouched. *)
let eval_with_override t ~var ~value =
  let env v =
    if v = var then value else Hashtbl.find_opt t.env v
  in
  Expr.holds ~env t.predicate

let snapshot t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.env []
