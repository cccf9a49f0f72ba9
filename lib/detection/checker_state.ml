(* The checker's evolving view of the global state.

   Applies updates one at a time, reporting the predicate transition each
   causes.  Returns the previous value of every applied update so race
   analyses can ask "would φ still hold had that concurrent update not
   been applied?" — the consensus test behind the borderline bin.  φ runs
   as a [Compiled] program; a variable φ never reads has no slot. *)

module Compiled = Psn_predicates.Compiled

type transition = Rose | Fell | Same

type t = {
  prog : Compiled.t;
  env : Compiled.env;
  mutable holds : bool;
}

let bind env s = function
  | Some v -> Compiled.set env s v
  | None -> Compiled.clear env s

let create ?(init = []) predicate =
  let prog = Compiled.compile predicate in
  let env = Compiled.create_env prog in
  List.iter
    (fun (v, value) ->
      let s = Compiled.slot prog v in
      if s >= 0 then Compiled.set env s value)
    init;
  { prog; env; holds = Compiled.holds prog env }

let holds t = t.holds

let apply t (u : Observation.update) =
  let s = Compiled.slot t.prog (Observation.located u) in
  if s < 0 then (Same, None)
  else begin
    let prev = Compiled.get t.env s in
    Compiled.set t.env s u.value;
    let now_holds = Compiled.holds t.prog t.env in
    let transition =
      match (t.holds, now_holds) with
      | false, true -> Rose
      | true, false -> Fell
      | _ -> Same
    in
    t.holds <- now_holds;
    (transition, prev)
  end

let eval_with_override t ~var ~value =
  let s = Compiled.slot t.prog var in
  if s < 0 then t.holds
  else begin
    let saved = Compiled.get t.env s in
    bind t.env s value;
    Fun.protect ~finally:(fun () -> bind t.env s saved) @@ fun () ->
    Compiled.holds t.prog t.env
  end
