(* Offline evaluation of timed relations (Psn_predicates.Timed) against
   the ground-truth update stream.

   The truth intervals of the X and Y conditions come from the same
   oracle the detectors are scored with; relation semantics are decided
   per interval pair with exact real-time arithmetic (via the Allen
   classification where possible).  Pairing is per Y-interval: a match is
   a Y-interval for which some X-interval satisfies the relation — in the
   banking example, a biometric presentation justified by a preceding
   password entry. *)

module Sim_time = Psn_sim.Sim_time
module Timed = Psn_predicates.Timed
module Allen = Psn_intervals.Allen

let relation_holds relation (x : Ground_truth.interval)
    (y : Ground_truth.interval) =
  let rel = Allen.classify_times x.t_start x.t_end y.t_start y.t_end in
  match relation with
  | Timed.Before -> (match rel with Allen.Before | Allen.Meets -> true | _ -> false)
  | Timed.Before_by_at_least gap ->
      Sim_time.( <= ) x.t_end y.t_start
      && Sim_time.( >= ) (Sim_time.sub y.t_start x.t_end) gap
  | Timed.Before_within window ->
      Sim_time.( <= ) x.t_end y.t_start
      && Sim_time.( <= ) (Sim_time.sub y.t_start x.t_end) window
  | Timed.Overlaps -> Allen.implies_overlap rel
  | Timed.Contains -> (
      match rel with
      | Allen.Contains | Allen.Finished_by | Allen.Started_by | Allen.Equals ->
          true
      | _ -> false)

(* Y-interval occurrences partitioned by whether some X-interval
   satisfies the relation with them; [unmatched] is the alarm set in the
   banking scenario. *)
let classify_y ?init ~updates ~horizon (spec : Timed.t) =
  let intervals predicate =
    Ground_truth.intervals ?init ~updates ~predicate ~horizon ()
  in
  let xs = intervals spec.Timed.x in
  List.partition
    (fun y -> List.exists (fun x -> relation_holds spec.Timed.relation x y) xs)
    (intervals spec.Timed.y)

let holds ?init ~updates ~horizon spec =
  fst (classify_y ?init ~updates ~horizon spec) <> []
