(* Allen's 13 interval relations (paper §3.1.1.a.ii, after Allen 1983).

   These are the relative timing relations — "X before Y", "X overlaps Y"
   — available when a single (real) time axis orders interval endpoints.
   Classification is exact on the ground-truth endpoint times. *)

module Sim_time = Psn_sim.Sim_time

type relation =
  | Before
  | Meets
  | Overlaps
  | Finished_by
  | Contains
  | Starts
  | Equals
  | Started_by
  | During
  | Finishes
  | Overlapped_by
  | Met_by
  | After

let all =
  [ Before; Meets; Overlaps; Finished_by; Contains; Starts; Equals; Started_by;
    During; Finishes; Overlapped_by; Met_by; After ]

let to_string = function
  | Before -> "before"
  | Meets -> "meets"
  | Overlaps -> "overlaps"
  | Finished_by -> "finished-by"
  | Contains -> "contains"
  | Starts -> "starts"
  | Equals -> "equals"
  | Started_by -> "started-by"
  | During -> "during"
  | Finishes -> "finishes"
  | Overlapped_by -> "overlapped-by"
  | Met_by -> "met-by"
  | After -> "after"

let inverse = function
  | Before -> After
  | Meets -> Met_by
  | Overlaps -> Overlapped_by
  | Finished_by -> Finishes
  | Contains -> During
  | Starts -> Started_by
  | Equals -> Equals
  | Started_by -> Starts
  | During -> Contains
  | Finishes -> Finished_by
  | Overlapped_by -> Overlaps
  | Met_by -> Meets
  | After -> Before

(* Classify intervals [a1, a2] vs [b1, b2] with a1 <= a2, b1 <= b2. *)
let classify_times a1 a2 b1 b2 =
  if Sim_time.( > ) a1 a2 || Sim_time.( > ) b1 b2 then
    invalid_arg "Allen.classify_times: malformed interval";
  let c_ab = Sim_time.compare a2 b1 and c_ba = Sim_time.compare b2 a1 in
  if c_ab < 0 then Before
  else if c_ba < 0 then After
  else if c_ab = 0 && Sim_time.( < ) a1 a2 && Sim_time.( < ) b1 b2 then Meets
  else if c_ba = 0 && Sim_time.( < ) a1 a2 && Sim_time.( < ) b1 b2 then Met_by
  else begin
    let cs = Sim_time.compare a1 b1 and ce = Sim_time.compare a2 b2 in
    match (cs, ce) with
    | 0, 0 -> Equals
    | 0, c when c < 0 -> Starts
    | 0, _ -> Started_by
    | c, 0 when c < 0 -> Finished_by
    | _, 0 -> Finishes
    | c, c' when c < 0 && c' > 0 -> Contains
    | c, c' when c > 0 && c' < 0 -> During
    | c, _ when c < 0 -> Overlaps
    | _, _ -> Overlapped_by
  end

let classify a b =
  classify_times a.Interval.t_lo a.Interval.t_hi b.Interval.t_lo b.Interval.t_hi

(* Relations under which the intervals share at least one instant — the
   ones an Instantaneously-modality predicate on both values cares about. *)
let implies_overlap = function
  | Before | After -> false
  | Meets | Met_by
  | Overlaps | Overlapped_by | Starts | Started_by | During | Contains
  | Finishes | Finished_by | Equals -> true
