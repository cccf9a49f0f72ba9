(* E9 — The borderline bin (paper §5).

   Claim: "the consensus based algorithm using vector strobes will be able
   to place false positives and most false negatives in a 'borderline
   bin' which is characterized by a race condition. ... To err on the safe
   side, such entries can be treated as positives."

   Exhibition hall held near its capacity boundary with fast traffic
   (maximal racing), scored under the three borderline policies. *)

module Sim_time = Psn_sim.Sim_time
module Hall = Psn_scenarios.Exhibition_hall
open Exp_common

let scenario_cfg =
  { Hall.doors = 6; capacity = 24; visitors = 48; dwell_mean = 15.0 }

(* The policy only feeds the scoring, so each seed runs once and its
   truth and occurrences are scored under every policy. *)
let run ?(quick = false) () =
  let horizon = Sim_time.of_sec (if quick then 1800 else 3600) in
  let seeds = if quick then [ 11L ] else [ 11L; 23L; 47L ] in
  let policies =
    [
      ("borderline as positive", Psn_detection.Metrics.As_positive);
      ("borderline as negative", Psn_detection.Metrics.As_negative);
      ("borderline dropped", Psn_detection.Metrics.Drop);
    ]
  in
  let runs =
    repeat_reports ~seeds (fun seed ->
        let config =
          {
            Psn.Config.default with
            n = scenario_cfg.Hall.doors;
            clock = Psn_clocks.Clock_kind.Strobe_vector;
            delay = delay_of_delta (Sim_time.of_ms 500);
            horizon;
            seed;
          }
        in
        (config, Hall.run ~cfg:scenario_cfg config))
  in
  let rows =
    List.map
      (fun (label, policy) ->
        let agg =
          aggregate
            (List.map
               (fun ((config : Psn.Config.t), (r : Psn.Report.t)) ->
                 Psn_detection.Metrics.score ~tolerance:config.tolerance
                   ~policy ~truth:r.truth ~detections:r.occurrences ())
               runs)
        in
        [
          label;
          f1 agg.truth;
          f1 agg.borderline;
          f1 agg.tp;
          f1 agg.fp;
          f1 agg.fn;
          f3 agg.precision;
          f3 agg.recall;
        ])
      policies
  in
  {
    id = "E9";
    title = "borderline bin under racing traffic (policy comparison)";
    claim =
      "S5: races land in a borderline bin; treating borderline entries as \
       positives errs on the safe side (recall up at some precision cost), \
       treating them as negatives does the opposite";
    headers =
      [ "policy"; "truth"; "border"; "tp"; "fp"; "fn"; "prec"; "recall" ];
    rows;
    notes =
      "The borderline column counts race-flagged detections (same in every \
       row). As-positive should dominate the other policies on recall; \
       as-negative should dominate on precision — the safe-side trade the \
       paper describes.";
  }
