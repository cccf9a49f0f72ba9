(* Local intervals (paper §2.2): "the time duration between two successive
   events at a process identifies an interval".

   An interval records the value that held during it, the true simulation
   times of its endpoints (ground truth only), and the timestamps the
   endpoints received under whatever clock the protocol ran — vector
   and/or scalar.  Detection algorithms reason about intervals purely
   through the stamps; the true times exist so experiments can score the
   algorithms. *)

module Sim_time = Psn_sim.Sim_time
module Value = Psn_world.Value

type t = {
  proc : int;
  seq : int;                    (* index among the process's intervals *)
  value : Value.t;              (* value of the tracked variable *)
  t_lo : Sim_time.t;            (* true start time *)
  t_hi : Sim_time.t;            (* true end time; [t_hi = t_lo] allowed *)
  v_lo : int array option;      (* vector stamp at the start event *)
  v_hi : int array option;
  s_lo : int option;            (* scalar stamp at the start event *)
  s_hi : int option;
}

let make ~proc ~seq ~value ~t_lo ~t_hi ?v_lo ?v_hi () =
  if Sim_time.( > ) t_lo t_hi then invalid_arg "Interval.make: t_lo > t_hi";
  { proc; seq; value; t_lo; t_hi; v_lo; v_hi; s_lo = None; s_hi = None }

let duration t = Sim_time.sub t.t_hi t.t_lo

(* Real-time overlap of closed intervals — the ground-truth notion of
   "simultaneous" the Instantaneously modality targets. *)
let overlaps_real a b =
  Sim_time.( <= ) a.t_lo b.t_hi && Sim_time.( <= ) b.t_lo a.t_hi

let overlap_length a b =
  let lo = Sim_time.max a.t_lo b.t_lo and hi = Sim_time.min a.t_hi b.t_hi in
  if Sim_time.( > ) lo hi then Sim_time.zero else Sim_time.sub hi lo

let v_lo_exn t =
  match t.v_lo with
  | Some v -> v
  | None -> invalid_arg "Interval: missing vector stamp at start"

let v_hi_exn t =
  match t.v_hi with
  | Some v -> v
  | None -> invalid_arg "Interval: missing vector stamp at end"

(* Build the per-process interval sequence for one tracked variable from a
   timeline of (time, value, stamps) change points.  The final interval is
   closed at [horizon]. *)
let of_timeline ~proc ~horizon changes =
  let rec go seq acc = function
    | [] -> List.rev acc
    | (t_lo, value, v_lo, s_lo) :: rest ->
        let t_hi, v_hi, s_hi =
          match rest with
          | (t_next, _, v_next, s_next) :: _ -> (t_next, v_next, s_next)
          | [] -> (horizon, None, None)
        in
        let itv =
          { proc; seq; value; t_lo; t_hi; v_lo; v_hi; s_lo; s_hi }
        in
        go (seq + 1) (itv :: acc) rest
  in
  go 0 [] changes
