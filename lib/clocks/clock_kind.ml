(* The clock-implementation axis of the paper's design space (§3.2.1).

   This enumeration is what experiment configurations select over; the
   detectors in lib/detection each consume the concrete clock they need,
   and lib/core dispatches on this type. *)

type t =
  | Perfect_physical        (* §3.2.1.a.i — the impractical ideal *)
  | Synced_physical of { eps : Psn_sim.Sim_time.t }
      (* §3.2.1.a.ii — imperfectly synchronized, residual skew ε *)
  | Logical_scalar          (* §3.2.1.a.iii — Lamport SC1–SC3 *)
  | Logical_vector          (* §3.2.1.a.iv / §3.2.1.b.i — Mattern/Fidge *)
  | Strobe_scalar           (* §4.2.2 — SSC1–SSC2 *)
  | Strobe_vector           (* §4.2.1 — SVC1–SVC2 *)
  | Physical_vector         (* §3.2.1.b.ii *)
  | Hybrid_logical of { max_offset : Psn_sim.Sim_time.t; max_drift_ppm : float }
      (* extension: HLC over unsynchronized drifting hardware clocks —
         the middle ground between §3.2.1.a.(ii) and (iii): physical time
         as a hint, logical causality as the guarantee *)

let to_string = function
  | Perfect_physical -> "perfect-physical"
  | Synced_physical { eps } -> Fmt.str "synced-physical(eps=%a)" Psn_sim.Sim_time.pp eps
  | Logical_scalar -> "logical-scalar"
  | Logical_vector -> "logical-vector"
  | Strobe_scalar -> "strobe-scalar"
  | Strobe_vector -> "strobe-vector"
  | Physical_vector -> "physical-vector"
  | Hybrid_logical { max_offset; _ } ->
      Fmt.str "hybrid-logical(off<=%a)" Psn_sim.Sim_time.pp max_offset

let pp ppf t = Fmt.string ppf (to_string t)

(* Which time model (paper §3) a clock kind realizes. *)
type time_model = Single_axis | Partial_order

let time_model = function
  | Perfect_physical | Synced_physical _ | Logical_scalar | Strobe_scalar
  | Hybrid_logical _ ->
      Single_axis
  | Logical_vector | Strobe_vector | Physical_vector -> Partial_order
