(* The oracle: when did the predicate really hold?

   The paper's predicates are defined "on sensed attribute values during
   intervals" (§2.2), so ground truth is the timeline of the sensors'
   local variables at their true sense times — before any message delay,
   loss, or clock error distorts the checker's view.  Replaying the update
   stream in true-time order yields the maximal intervals where φ held;
   detectors are scored against these. *)

module Sim_time = Psn_sim.Sim_time
module Compiled = Psn_predicates.Compiled

type interval = {
  t_start : Sim_time.t;
  t_end : Sim_time.t;  (* exclusive; equals horizon when still true there *)
}

let compare_updates (a : Observation.update) (b : Observation.update) =
  let c = Sim_time.compare a.sense_time b.sense_time in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.src b.src in
    if c <> 0 then c else Stdlib.compare a.seq b.seq

let rec in_order = function
  | a :: (b :: _ as rest) -> compare_updates a b <= 0 && in_order rest
  | [] | [ _ ] -> true

(* φ is compiled once and re-evaluated only when an update binds a
   variable it reads: the others cannot change its value, nor make it
   raise where the previous evaluation did not.  A linear φ (the
   hall's sum) then costs O(1) per update.  The stable sort keeps a
   list already in replay order as it is, so such a list skips it. *)
let intervals ?(init = []) ~updates ~predicate ~horizon () =
  let prog = Compiled.compile predicate in
  let env = Compiled.create_env prog in
  List.iter
    (fun (v, value) ->
      let s = Compiled.slot prog v in
      if s >= 0 then Compiled.set env s value)
    init;
  let sorted =
    if in_order updates then updates else List.sort compare_updates updates
  in
  let acc = ref [] in
  let open_since = ref None in
  let holds = ref (Compiled.holds prog env) in
  if !holds then open_since := Some Sim_time.zero;
  List.iter
    (fun (u : Observation.update) ->
      if Sim_time.( <= ) u.sense_time horizon then begin
        let s = Compiled.slot prog (Observation.located u) in
        if s >= 0 then begin
          Compiled.set env s u.value;
          let now_holds = Compiled.holds prog env in
          (match (!holds, now_holds) with
          | false, true -> open_since := Some u.sense_time
          | true, false ->
              (match !open_since with
              | Some t_start -> acc := { t_start; t_end = u.sense_time } :: !acc
              | None -> ());
              open_since := None
          | _ -> ());
          holds := now_holds
        end
      end)
    sorted;
  (match !open_since with
  | Some t_start -> acc := { t_start; t_end = horizon } :: !acc
  | None -> ());
  List.rev !acc

let total_true_time ivs =
  List.fold_left
    (fun acc iv -> Sim_time.add acc (Sim_time.sub iv.t_end iv.t_start))
    Sim_time.zero ivs
