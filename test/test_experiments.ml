(* Tests for psn_experiments: the registry is well-formed and the cheap
   experiments reproduce their headline shapes. *)

module Experiments = Psn_experiments.Experiments
module Exp_common = Psn_experiments.Exp_common
module E3 = Psn_experiments.E03_slim_lattice
module Sim_time = Psn_sim.Sim_time

let test_registry () =
  let ids = List.map (fun (e : Experiments.entry) -> e.id) Experiments.all in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "find e3" true (Experiments.find "e3" <> None);
  Alcotest.(check bool) "find E3 case-insensitive" true
    (Experiments.find "E3" <> None);
  Alcotest.(check bool) "unknown" true (Experiments.find "zz" = None);
  Alcotest.(check bool) "expected entries" true (List.length ids >= 12)

(* Minimal substring check without extra deps. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_outcome_render () =
  let o =
    {
      Exp_common.id = "T";
      title = "t";
      claim = "c";
      headers = [ "a"; "b" ];
      rows = [ [ "1"; "2" ] ];
      notes = "n";
    }
  in
  let s = Exp_common.render o in
  Alcotest.(check bool) "mentions id" true (contains s "== T: t ==");
  Alcotest.(check bool) "mentions claim" true (contains s "claim: c");
  Alcotest.(check bool) "mentions notes" true (contains s "n")

let test_e3_shapes () =
  (* The slim lattice postulate's two anchor rows. *)
  let plane_sync, handles_sync =
    E3.strobe_run ~seed:5L ~n:3 ~events_per_proc:4 ~rate:1.0
      ~delta:(Some Sim_time.zero) ()
  in
  Alcotest.(check bool) "delta=0 chain" true
    (Psn_lattice.Lattice.is_chain_plane plane_sync handles_sync);
  (match Psn_lattice.Lattice.count_consistent_plane plane_sync handles_sync with
  | Psn_lattice.Lattice.Exact n -> Alcotest.(check int) "np+1" 13 n
  | Psn_lattice.Lattice.At_least _ -> Alcotest.fail "capped");
  let plane_free, handles_free =
    E3.strobe_run ~seed:5L ~n:3 ~events_per_proc:4 ~rate:1.0 ~delta:None ()
  in
  match Psn_lattice.Lattice.count_consistent_plane plane_free handles_free with
  | Psn_lattice.Lattice.Exact n ->
      Alcotest.(check int) "(p+1)^n" 125 n
  | Psn_lattice.Lattice.At_least _ -> Alcotest.fail "capped"

let test_e3_monotone_in_delta () =
  let count delta =
    let plane, handles =
      E3.strobe_run ~seed:5L ~n:3 ~events_per_proc:4 ~rate:1.0 ~delta ()
    in
    Psn_lattice.Lattice.verdict_count
      (Psn_lattice.Lattice.count_consistent_plane plane handles)
  in
  let fast = count (Some (Sim_time.of_ms 1)) in
  let slow = count (Some (Sim_time.of_sec 30)) in
  let none = count None in
  Alcotest.(check bool) "faster strobes, leaner lattice" true
    (fast <= slow && slow <= none)

(* Recall and precision floors for E1's quick table (seed 11) at
   Δ = 50 ms and 500 ms, the two deltas at or below 1 s: each floor is
   the measured value minus 0.05, except the synced-physical rows, which
   read 1.000 at both deltas and are floored at 0.99.  These are lower
   bounds only; whether a vector row may report false positives at all
   (strobe-vector has fp = 10 at 500 ms) is a question for an oracle. *)
let e1_floors =
  (* delta, clock, precision floor, recall floor *)
  [
    ("50ms", "strobe-vector", 0.95, 0.936);
    ("50ms", "strobe-scalar", 0.95, 0.936);
    ("50ms", "synced-physical(eps=1.0ms)", 0.99, 0.99);
    ("50ms", "hybrid-logical(off<=250.0ms)", 0.95, 0.936);
    ("50ms", "logical-scalar", 0.929, 0.929);
    ("500ms", "strobe-vector", 0.878, 0.839);
    ("500ms", "strobe-scalar", 0.877, 0.832);
    ("500ms", "synced-physical(eps=1.0ms)", 0.99, 0.99);
    ("500ms", "hybrid-logical(off<=250.0ms)", 0.846, 0.783);
    ("500ms", "logical-scalar", 0.831, 0.769);
  ]

let test_e1_floors () =
  let o = Psn_experiments.E01_accuracy_vs_delta.run ~quick:true () in
  let at_least ~row what value floor =
    let v = float_of_string value in
    if v < floor then
      Alcotest.failf "E1 %s: %s %.3f below its floor %.3f" row what v floor
  in
  List.iter
    (fun (delta, clock, prec_floor, recall_floor) ->
      let row = delta ^ " " ^ clock in
      match
        List.find_opt
          (function d :: c :: _ -> d = delta && c = clock | _ -> false)
          o.Exp_common.rows
      with
      | Some [ _; _; _; _; _; _; _; prec; recall ] ->
          at_least ~row "precision" prec prec_floor;
          at_least ~row "recall" recall recall_floor
      | Some _ | None -> Alcotest.failf "E1 has no %s row" row)
    e1_floors

let test_e12_runs () =
  let o = Psn_experiments.E12_sync_cost.run ~quick:true () in
  Alcotest.(check bool) "rows" true (List.length o.Exp_common.rows >= 6);
  (* Each protocol row must show fewer microseconds than the drift row. *)
  Alcotest.(check string) "id" "E12" o.Exp_common.id

let test_eh_runs () =
  let o = Psn_experiments.Eh_habitat.run ~quick:true () in
  Alcotest.(check int) "three durations" 3 (List.length o.Exp_common.rows)

let test_e8_identity_row () =
  let o = Psn_experiments.E08_sync_equivalence.run ~quick:true () in
  match o.Exp_common.rows with
  | first :: _ ->
      Alcotest.(check string) "delta=0 strobes identical" "identical"
        (List.nth first 5)
  | [] -> Alcotest.fail "no rows"

let test_e5_overhead_shape () =
  let o = Psn_experiments.E05_overhead.run ~quick:true () in
  (* Strobe rows must carry exactly n-1 messages per update. *)
  List.iter
    (fun row ->
      match row with
      (* Prefix match: analytics columns ride behind the cost columns. *)
      | n :: clock :: _ :: msgs :: _
        when clock = "strobe-scalar" || clock = "strobe-vector" ->
          let n = int_of_string n in
          Alcotest.(check string)
            (Printf.sprintf "broadcast cost at n=%d (%s)" n clock)
            (Printf.sprintf "%.2f" (float_of_int (n - 1)))
            msgs
      | _ -> ())
    o.Exp_common.rows

let test_e9_policy_ordering () =
  let o = Psn_experiments.E09_borderline_bin.run ~quick:true () in
  match o.Exp_common.rows with
  | [ pos; neg; _drop ] ->
      let recall row = float_of_string (List.nth row 7) in
      let precision row = float_of_string (List.nth row 6) in
      Alcotest.(check bool) "as-positive wins recall" true
        (recall pos >= recall neg);
      Alcotest.(check bool) "as-negative wins precision" true
        (precision neg >= precision pos)
  | _ -> Alcotest.fail "expected three policy rows"

let test_em_modal_bracketing () =
  let o = Psn_experiments.Em_modality.run ~quick:true () in
  match o.Exp_common.rows with
  | [ _inst; poss; def ] ->
      let recall row = float_of_string (List.nth row 7) in
      let precision row = float_of_string (List.nth row 6) in
      Alcotest.(check bool) "possibly recall >= definitely" true
        (recall poss >= recall def);
      Alcotest.(check (float 1e-9)) "definitely precision 1" 1.0 (precision def)
  | _ -> Alcotest.fail "expected three modality rows"

let test_ea_latency_grows () =
  let o = Psn_experiments.Ea_holdback.run ~quick:true () in
  let latencies =
    List.map
      (fun row ->
        let s = List.nth row 7 in
        (* "123ms" *)
        float_of_string (String.sub s 0 (String.length s - 2)))
      o.Exp_common.rows
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "latency monotone in hold" true (increasing latencies)

let test_aggregate () =
  let s1 =
    Psn_detection.Metrics.score ~truth:[] ~detections:[] ()
  in
  let agg = Exp_common.aggregate [ s1; s1 ] in
  Alcotest.(check (float 1e-9)) "precision avg" 1.0 agg.Exp_common.precision;
  Alcotest.(check (float 1e-9)) "tp avg" 0.0 agg.Exp_common.tp

(* Run [f] with [PSN_DOMAINS] set to [v], restoring the caller's value
   (or the empty string, which the pool reads as unset) afterwards. *)
let with_psn_domains v f =
  let prev = Sys.getenv_opt "PSN_DOMAINS" in
  Unix.putenv "PSN_DOMAINS" v;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PSN_DOMAINS" (Option.value prev ~default:""))
    f

(* The persistent domain pool must be invisible in results: the same
   experiment rendered sequentially and through the pool (forced on,
   whatever this machine's core count) must be byte-identical. *)
let test_pooled_table_identical () =
  let render () =
    Exp_common.render (Psn_experiments.E01_accuracy_vs_delta.run ~quick:true ())
  in
  let seq = with_psn_domains "1" render in
  let pooled = with_psn_domains "4" render in
  Alcotest.(check string) "pooled table byte-identical to sequential" seq pooled

let () =
  Alcotest.run "psn_experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "well-formed" `Quick test_registry;
          Alcotest.test_case "render" `Quick test_outcome_render;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "e3 anchors" `Quick test_e3_shapes;
          Alcotest.test_case "e3 monotone" `Quick test_e3_monotone_in_delta;
          Alcotest.test_case "e12 runs" `Quick test_e12_runs;
          Alcotest.test_case "eh runs" `Quick test_eh_runs;
          Alcotest.test_case "e8 identity" `Quick test_e8_identity_row;
          Alcotest.test_case "e5 overhead shape" `Quick test_e5_overhead_shape;
          Alcotest.test_case "e9 policy ordering" `Quick test_e9_policy_ordering;
          Alcotest.test_case "em modal bracketing" `Quick test_em_modal_bracketing;
          Alcotest.test_case "ea latency monotone" `Quick test_ea_latency_grows;
          Alcotest.test_case "pooled table identical" `Quick
            test_pooled_table_identical;
          Alcotest.test_case "e1 recall/precision floors" `Quick test_e1_floors;
        ] );
    ]
