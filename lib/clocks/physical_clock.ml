(* Drifting hardware clock and its ε-synchronized view (paper §3.2.1.a.ii).

   A hardware clock reads  H(t) = t + offset + drift_ppm * 1e-6 * t,
   i.e. a fixed boot offset plus a constant rate error.  A synchronization
   protocol (lib/timesync) periodically estimates a correction; between
   corrections the residual error grows with drift, which is exactly the
   skew/drift imprecision the paper's §3.3 limitations list.  This module
   also provides [perfect] and [synced_within] constructors so detectors
   can be driven with an ideal or a bounded-skew clock directly. *)

module Sim_time = Psn_sim.Sim_time

type t = {
  offset_ns : float;            (* fixed offset from true time, ns *)
  drift_ppm : float;            (* constant rate error, parts per million *)
  mutable corr_offset_ns : float;  (* correction applied by sync protocol *)
  mutable corr_drift_ppm : float;
  mutable corr_applied_at : Sim_time.t;
}

let create rng ~max_offset ~max_drift_ppm =
  let max_offset_ns = Sim_time.to_sec_float max_offset *. 1e9 in
  {
    offset_ns = Psn_util.Rng.uniform rng (-.max_offset_ns) max_offset_ns;
    drift_ppm = Psn_util.Rng.uniform rng (-.max_drift_ppm) max_drift_ppm;
    corr_offset_ns = 0.0;
    corr_drift_ppm = 0.0;
    corr_applied_at = Sim_time.zero;
  }

let perfect () =
  {
    offset_ns = 0.0;
    drift_ppm = 0.0;
    corr_offset_ns = 0.0;
    corr_drift_ppm = 0.0;
    corr_applied_at = Sim_time.zero;
  }

(* A clock whose reading is true time plus a fixed error uniform in
   [-eps/2, +eps/2]: the abstraction of "synchronized within skew ε" that
   the Mayo–Kearns analysis (E2) uses. *)
let synced_within rng ~eps =
  let eps_ns = Sim_time.to_sec_float eps *. 1e9 in
  {
    offset_ns = Psn_util.Rng.uniform rng (-.eps_ns /. 2.0) (eps_ns /. 2.0);
    drift_ppm = 0.0;
    corr_offset_ns = 0.0;
    corr_drift_ppm = 0.0;
    corr_applied_at = Sim_time.zero;
  }

let raw_error_ns t ~(now : Sim_time.t) =
  let tns = Sim_time.to_sec_float now *. 1e9 in
  t.offset_ns +. (t.drift_ppm *. 1e-6 *. tns)

(* Uncorrected hardware reading at true time [now], quantized to 1 ns. *)
let read_raw t ~now =
  let tns = Sim_time.to_sec_float now *. 1e9 in
  let reading = Float.round (tns +. raw_error_ns t ~now) in
  Sim_time.of_sec_float (Float.max 0.0 (reading /. 1e9))

(* Reading after the currently installed correction. *)
let read t ~now =
  let tns = Sim_time.to_sec_float now *. 1e9 in
  let since = tns -. (Sim_time.to_sec_float t.corr_applied_at *. 1e9) in
  let corrected =
    tns +. raw_error_ns t ~now +. t.corr_offset_ns
    +. (t.corr_drift_ppm *. 1e-6 *. since)
  in
  Sim_time.of_sec_float (Float.max 0.0 (corrected /. 1e9))

(* Install a correction (typically from a sync protocol's estimate). *)
let apply_correction t ~now ~offset_ns ~drift_ppm =
  t.corr_offset_ns <- offset_ns;
  t.corr_drift_ppm <- drift_ppm;
  t.corr_applied_at <- now

(* Add a delta to the installed offset correction; sync protocols whose
   estimates are relative to the current (already corrected) reading use
   this to compose rounds. *)
let adjust_offset_ns t delta = t.corr_offset_ns <- t.corr_offset_ns +. delta

(* Signed synchronization error, in seconds, at true time [now]. *)
let error_sec t ~now =
  Sim_time.to_sec_float (read t ~now) -. Sim_time.to_sec_float now
