(* Outcome of one detection run: accuracy vs the oracle, plus costs.

   [metrics] is the snapshot of the run's whole metrics registry — every
   layer's counters under its own prefix (net.detector.*, causal.*,
   engine.*, ...) — so tables can break costs down per layer instead of
   reading four opaque integers. The integer fields remain as the
   headline costs every experiment table shares. *)

module Sim_time = Psn_sim.Sim_time

type shard_info = {
  si_windows : int;
  si_per_shard : Psn_obs.Metrics.snapshot array;
}

type t = {
  summary : Psn_detection.Metrics.summary;
  truth : Psn_detection.Ground_truth.interval list;
  occurrences : Psn_detection.Occurrence.t list;
  updates : int;           (* sense-event updates emitted *)
  messages : int;          (* network transmissions *)
  words : int;             (* payload words transmitted *)
  dropped : int;
  sim_events : int;        (* engine events processed *)
  horizon : Sim_time.t;
  metrics : Psn_obs.Metrics.snapshot;
  sharding : shard_info option;
}

let summary t = t.summary
let truth t = t.truth
let occurrences t = t.occurrences
let metrics t = t.metrics
let core t = { t with sharding = None }

(* Words per update: the per-event timestamping overhead E5 tabulates. *)
let words_per_update t =
  if t.updates = 0 then 0.0 else float_of_int t.words /. float_of_int t.updates

(* Sum of the counters matching [prefix]/[suffix] in one shard's
   snapshot — e.g. the per-label shardnet send counters. *)
let sum_counters snap ~prefix ~suffix =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Psn_obs.Metrics.Counter n
        when String.starts_with ~prefix name
             && String.ends_with ~suffix name ->
          acc + n
      | _ -> acc)
    0 snap

let pp ppf t =
  Fmt.pf ppf "%a | updates=%d msgs=%d words=%d dropped=%d words/update=%.2f"
    Psn_detection.Metrics.pp t.summary t.updates t.messages t.words t.dropped
    (words_per_update t);
  match t.sharding with
  | None -> ()
  | Some si ->
      Fmt.pf ppf "@\nshards=%d windows=%d"
        (Array.length si.si_per_shard)
        si.si_windows;
      Array.iteri
        (fun s snap ->
          Fmt.pf ppf "@\n  shard %d: fired=%d scheduled=%d sent=%d dropped=%d"
            s
            (Psn_obs.Metrics.get_counter snap "engine.fired")
            (Psn_obs.Metrics.get_counter snap "engine.scheduled")
            (sum_counters snap ~prefix:"shardnet." ~suffix:".sent")
            (sum_counters snap ~prefix:"shardnet." ~suffix:".dropped"))
        si.si_per_shard
