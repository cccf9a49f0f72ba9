(* Shared machinery for the claim-reproduction experiments E1–E12.

   Each experiment returns an [outcome] — a rendered table plus the claim
   it tests — so the bench harness, the CLI, and EXPERIMENTS.md all show
   the same rows.  Multi-seed repetitions fan out over domains; results
   come back in seed order, so tables are bit-identical however many cores
   run them. *)

module Sim_time = Psn_sim.Sim_time
module Metrics = Psn_detection.Metrics

type outcome = {
  id : string;
  title : string;
  claim : string;       (* the paper claim being reproduced, with its § *)
  headers : string list;
  rows : string list list;
  notes : string;       (* reading guidance: what shape to expect *)
}

let render o =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "== %s: %s ==\n" o.id o.title);
  Buffer.add_string buf (Printf.sprintf "claim: %s\n\n" o.claim);
  Buffer.add_string buf (Psn_util.Table.render ~headers:o.headers ~rows:o.rows ());
  if o.notes <> "" then Buffer.add_string buf (Printf.sprintf "\n%s\n" o.notes);
  Buffer.contents buf

let print o = print_string (render o)

(* Host-time profiling hook: sweeps charge their phases to the calling
   domain's profile when one is installed ([psn-sim profile]); with none
   installed this is the identity. *)
let phase = Psn_obs.Profile.phase

(* Aggregate metric summaries over repetitions. *)
type agg = {
  truth : float;
  tp : float;
  fp : float;
  fn : float;
  borderline : float;
  duplicates : float;
  precision : float;
  recall : float;
}

let aggregate summaries =
  let k = float_of_int (max 1 (List.length summaries)) in
  let sum f = List.fold_left (fun acc s -> acc +. float_of_int (f s)) 0.0 summaries in
  let sumf f = List.fold_left (fun acc s -> acc +. f s) 0.0 summaries in
  {
    truth = sum (fun s -> s.Metrics.truth_count) /. k;
    tp = sum (fun s -> s.Metrics.tp) /. k;
    fp = sum (fun s -> s.Metrics.fp) /. k;
    fn = sum (fun s -> s.Metrics.fn) /. k;
    borderline = sum (fun s -> s.Metrics.borderline) /. k;
    duplicates = sum (fun s -> s.Metrics.duplicates) /. k;
    precision = sumf (fun s -> s.Metrics.precision) /. k;
    recall = sumf (fun s -> s.Metrics.recall) /. k;
  }

(* Run [f seed] for several seeds in parallel and aggregate. *)
let repeat ?(seeds = [ 11L; 23L; 47L ]) f =
  let results = Psn_util.Parallel.map_array f (Array.of_list seeds) in
  aggregate (Array.to_list results)

(* Full reports for several seeds, in seed order. *)
let repeat_reports ?(seeds = [ 11L; 23L; 47L ]) f =
  Array.to_list (Psn_util.Parallel.map_array f (Array.of_list seeds))

(* Mean per-run message costs: the columns every cost table should share
   (messages, words, dropped, words/update) so no experiment silently
   hides a cost the others surface. *)
type cost = {
  messages : float;
  words : float;
  dropped : float;
  updates : float;
  words_per_update : float;
}

let cost_of_reports reports =
  let k = float_of_int (max 1 (List.length reports)) in
  let sum f =
    List.fold_left
      (fun acc (r : Psn.Report.t) -> acc +. float_of_int (f r))
      0.0 reports
  in
  {
    messages = sum (fun r -> r.Psn.Report.messages) /. k;
    words = sum (fun r -> r.Psn.Report.words) /. k;
    dropped = sum (fun r -> r.Psn.Report.dropped) /. k;
    updates = sum (fun r -> r.Psn.Report.updates) /. k;
    words_per_update =
      List.fold_left (fun acc r -> acc +. Psn.Report.words_per_update r) 0.0
        reports
      /. k;
  }

(* Run [f] with a streaming trace analyzer riding the record stream, and
   return its result next to the analyzer.  When an outer default sink is
   already installed (the CLI's [--trace]), the analyzer taps it — the
   outer sink keeps every record and flow ids stay unique.  Otherwise an
   unretained sink is installed for the duration, so the analyzer sees
   the stream without the trace accumulating.  Either way the sink is
   this domain's default, so only the engines [f] creates here feed the
   analyzer.  Tracing never perturbs the simulation (flow ids come from
   the sink, the rng is untouched), so wrapped runs report the same
   tables. *)
let analyzed f =
  let az = Psn_obs.Analyze.create () in
  let feed = Psn_obs.Analyze.feed az in
  match Psn_obs.Trace.default () with
  | Some outer ->
      Psn_obs.Trace.set_tap outer (Some feed);
      let r =
        Fun.protect ~finally:(fun () -> Psn_obs.Trace.set_tap outer None) f
      in
      (r, az)
  | None ->
      let sink = Psn_obs.Trace.create ~retain:false () in
      Psn_obs.Trace.set_tap sink (Some feed);
      (Psn_obs.Trace.with_default sink f, az)

let f1 = Psn_util.Table.fmt_float ~digits:1
let f2 = Psn_util.Table.fmt_float ~digits:2
let f3 = Psn_util.Table.fmt_float ~digits:3

(* Uniform delay model around a Δ bound: [Δ/10, Δ]. *)
let delay_of_delta delta =
  if Sim_time.equal delta Sim_time.zero then Psn_sim.Delay_model.synchronous
  else
    Psn_sim.Delay_model.bounded_uniform
      ~min:(Sim_time.scale delta 0.1)
      ~max:delta
