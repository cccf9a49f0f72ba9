(* Tests for psn_detection: the ground-truth oracle, the scoring metrics,
   the shared checker state, and all five detector families driven by
   deterministic scripted emissions. *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Expr = Psn_predicates.Expr
module Value = Psn_world.Value
module D = Psn_detection
module Observation = D.Observation
module Occurrence = D.Occurrence
module Ground_truth = D.Ground_truth
module Metrics = D.Metrics
module Checker_state = D.Checker_state
module Detector = D.Detector
module Clock_kind = Psn_clocks.Clock_kind

let ms = Sim_time.of_ms

let update ~src ~var ~value ~seq ~t =
  { Observation.src; var; value; seq; sense_time = ms t }

let conj_ab =
  Expr.(
    (var ~name:"a" ~loc:0 ==? bool true) &&& (var ~name:"b" ~loc:1 ==? bool true))

let init_ab =
  [
    ({ Expr.name = "a"; loc = 0 }, Value.Bool false);
    ({ Expr.name = "b"; loc = 1 }, Value.Bool false);
  ]

(* --- Ground truth --- *)

let test_ground_truth_basic () =
  let updates =
    [
      update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t:10;
      update ~src:1 ~var:"b" ~value:(Value.Bool true) ~seq:0 ~t:20;
      update ~src:0 ~var:"a" ~value:(Value.Bool false) ~seq:1 ~t:30;
      update ~src:1 ~var:"b" ~value:(Value.Bool false) ~seq:1 ~t:40;
    ]
  in
  let ivs =
    Ground_truth.intervals ~init:init_ab ~updates ~predicate:conj_ab
      ~horizon:(ms 100) ()
  in
  match ivs with
  | [ iv ] ->
      Alcotest.(check bool) "start" true (Sim_time.equal iv.Ground_truth.t_start (ms 20));
      Alcotest.(check bool) "end" true (Sim_time.equal iv.Ground_truth.t_end (ms 30))
  | _ -> Alcotest.fail "expected one interval"

let test_ground_truth_open_at_horizon () =
  let updates =
    [
      update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t:10;
      update ~src:1 ~var:"b" ~value:(Value.Bool true) ~seq:0 ~t:20;
    ]
  in
  let ivs =
    Ground_truth.intervals ~init:init_ab ~updates ~predicate:conj_ab
      ~horizon:(ms 50) ()
  in
  match ivs with
  | [ iv ] ->
      Alcotest.(check bool) "closes at horizon" true
        (Sim_time.equal iv.Ground_truth.t_end (ms 50))
  | _ -> Alcotest.fail "expected one interval"

let test_ground_truth_unbound_false () =
  (* No init: unbound variables make the predicate false, not an error. *)
  let updates = [ update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t:10 ] in
  let ivs =
    Ground_truth.intervals ~updates ~predicate:conj_ab ~horizon:(ms 50) ()
  in
  Alcotest.(check int) "no intervals" 0 (List.length ivs)

let test_ground_truth_initially_true () =
  let init =
    [
      ({ Expr.name = "a"; loc = 0 }, Value.Bool true);
      ({ Expr.name = "b"; loc = 1 }, Value.Bool true);
    ]
  in
  let updates = [ update ~src:0 ~var:"a" ~value:(Value.Bool false) ~seq:0 ~t:25 ] in
  let ivs =
    Ground_truth.intervals ~init ~updates ~predicate:conj_ab ~horizon:(ms 50) ()
  in
  match ivs with
  | [ iv ] ->
      Alcotest.(check bool) "starts at zero" true
        (Sim_time.equal iv.Ground_truth.t_start Sim_time.zero);
      Alcotest.(check bool) "ends at 25" true
        (Sim_time.equal iv.Ground_truth.t_end (ms 25))
  | _ -> Alcotest.fail "expected one interval"

let test_ground_truth_multiple_occurrences () =
  let updates =
    List.concat_map
      (fun k ->
        let base = 100 * k in
        [
          update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:(2 * k) ~t:(base + 10);
          update ~src:0 ~var:"a" ~value:(Value.Bool false) ~seq:((2 * k) + 1)
            ~t:(base + 20);
        ])
      [ 0; 1; 2 ]
  in
  let init =
    [
      ({ Expr.name = "a"; loc = 0 }, Value.Bool false);
      ({ Expr.name = "b"; loc = 1 }, Value.Bool true);
    ]
  in
  let ivs =
    Ground_truth.intervals ~init ~updates ~predicate:conj_ab ~horizon:(ms 1000)
      ()
  in
  Alcotest.(check int) "three occurrences" 3 (List.length ivs);
  Alcotest.(check bool) "total time" true
    (Sim_time.equal (Ground_truth.total_true_time ivs) (ms 30))

let test_ground_truth_ignores_after_horizon () =
  let updates =
    [
      update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t:10;
      update ~src:1 ~var:"b" ~value:(Value.Bool true) ~seq:0 ~t:200;
    ]
  in
  let ivs =
    Ground_truth.intervals ~init:init_ab ~updates ~predicate:conj_ab
      ~horizon:(ms 100) ()
  in
  Alcotest.(check int) "update beyond horizon ignored" 0 (List.length ivs)

(* --- Ground truth against the retired interpreter loop ---

   [Ground_truth.intervals] replays through a compiled program and
   re-evaluates only on updates to variables φ reads.  The loop it
   replaced — a Hashtbl env and [Expr.eval_bool] after every update —
   stays here as the oracle. *)

let oracle_intervals ?(init = []) ~updates ~predicate ~horizon () =
  let tbl : (Expr.var, Value.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (v, value) -> Hashtbl.replace tbl v value) init;
  let env v = Hashtbl.find_opt tbl v in
  let eval_safe () =
    match Expr.eval_bool ~env predicate with
    | b -> b
    | exception Expr.Unbound_variable _ -> false
  in
  let sorted = List.sort Ground_truth.compare_updates updates in
  let acc = ref [] in
  let open_since = ref None in
  let holds = ref (eval_safe ()) in
  if !holds then open_since := Some Sim_time.zero;
  List.iter
    (fun (u : Observation.update) ->
      if Sim_time.( <= ) u.sense_time horizon then begin
        Hashtbl.replace tbl (Observation.located u) u.value;
        let now_holds = eval_safe () in
        (match (!holds, now_holds) with
        | false, true -> open_since := Some u.sense_time
        | true, false ->
            (match !open_since with
            | Some t_start ->
                acc := { Ground_truth.t_start; t_end = u.sense_time } :: !acc
            | None -> ());
            open_since := None
        | _ -> ());
        holds := now_holds
      end)
    sorted;
  (match !open_since with
  | Some t_start -> acc := { Ground_truth.t_start; t_end = horizon } :: !acc
  | None -> ());
  List.rev !acc

(* Predicates read [read_pool]; updates and [init] also touch
   [unread_pool], which no predicate mentions. *)
let read_pool = [ ("a", 0); ("b", 1); ("c", 2); ("d", 0) ]
let unread_pool = [ ("u", 1); ("a", 3) ]

let gen_read_var =
  QCheck.Gen.map (fun (name, loc) -> Expr.var ~name ~loc) (QCheck.Gen.oneofl read_pool)

let gen_cmp = QCheck.Gen.oneofl [ Expr.Eq; Ne; Lt; Le; Gt; Ge ]
let gen_small_int = QCheck.Gen.map Expr.int (QCheck.Gen.int_range (-3) 3)

let gen_local_cmp =
  QCheck.Gen.(
    map3 (fun op v c -> Expr.Cmp (op, v, c)) gen_cmp gen_read_var gen_small_int)

let rec gen_sum n =
  QCheck.Gen.(
    if n <= 1 then frequency [ (3, gen_read_var); (1, gen_small_int) ]
    else
      map3
        (fun op a b -> Expr.Arith (op, a, b))
        (oneofl [ Expr.Add; Sub ])
        (gen_sum (n / 2))
        (gen_sum (n - (n / 2))))

let gen_truth_predicate =
  QCheck.Gen.(
    frequency
      [
        (* conjunctive *)
        ( 2,
          int_range 1 3 >>= fun k ->
          map
            (function
              | first :: rest -> List.fold_left Expr.( &&& ) first rest
              | [] -> assert false)
            (list_repeat k gen_local_cmp) );
        (* relational, outside the linear form *)
        ( 2,
          oneof
            [
              map2 (fun a b -> Expr.(a ||| b)) gen_local_cmp gen_local_cmp;
              map3
                (fun op a b -> Expr.Cmp (op, Expr.(a *? b), Expr.int 1))
                gen_cmp gen_read_var gen_read_var;
              map (fun e -> Expr.not_ e) gen_local_cmp;
            ] );
        (* linear *)
        ( 3,
          map3
            (fun op a b -> Expr.Cmp (op, a, b))
            gen_cmp
            (int_range 1 4 >>= gen_sum)
            (int_range 1 3 >>= gen_sum) );
      ])

(* Mostly small ints, so predicates flip; sometimes floats, and
   sometimes bools, which make arithmetic and comparisons raise. *)
let gen_truth_value =
  QCheck.Gen.(
    frequency
      [
        (12, map (fun i -> Value.Int i) (int_range (-3) 3));
        (1, map (fun i -> Value.Float (float_of_int i +. 0.5)) (int_range (-3) 2));
        (1, map (fun b -> Value.Bool b) bool);
      ])

let gen_any_var = QCheck.Gen.oneofl (read_pool @ read_pool @ unread_pool)

(* Sense times in 0..30 ms against a 25 ms horizon: ties are common
   and some updates land past the horizon. *)
let gen_truth_update =
  QCheck.Gen.(
    map3
      (fun (var, src) value (seq, t) -> update ~src ~var ~value ~seq ~t)
      gen_any_var gen_truth_value
      (pair (int_range 0 3) (int_range 0 30)))

let gen_truth_case =
  QCheck.Gen.(
    triple gen_truth_predicate
      (list_size (int_range 0 6)
         (map2
            (fun (name, loc) value -> ({ Expr.name; loc }, value))
            gen_any_var gen_truth_value))
      (list_size (int_range 0 30) gen_truth_update))

let truth_outcome f =
  match f () with
  | ivs -> Ok (List.map (fun iv -> (iv.Ground_truth.t_start, iv.t_end)) ivs)
  | exception Value.Type_error m -> Error m

let pp_truth_outcome = function
  | Ok ivs ->
      String.concat " " (List.map (fun (a, b) -> Printf.sprintf "[%d,%d)" a b) ivs)
  | Error m -> Printf.sprintf "Type_error %S" m

let arb_truth_case =
  QCheck.make
    ~print:(fun (p, init, updates) ->
      Printf.sprintf "%s; init [%s]; updates [%s]" (Expr.to_string p)
        (String.concat "; "
           (List.map
              (fun ((v : Expr.var), value) ->
                Printf.sprintf "%s_%d=%s" v.name v.loc (Value.to_string value))
              init))
        (String.concat "; " (List.map (Fmt.str "%a" Observation.pp) updates)))
    gen_truth_case

(* The compiled replay agrees with the oracle on the shuffled stream and
   on the same stream pre-sorted (the path that skips the sort). *)
let ground_truth_matches_oracle (predicate, init, updates) =
  let horizon = ms 25 in
  let oracle =
    truth_outcome (fun () -> oracle_intervals ~init ~updates ~predicate ~horizon ())
  in
  List.iter
    (fun (label, updates) ->
      let got =
        truth_outcome (fun () ->
            Ground_truth.intervals ~init ~updates ~predicate ~horizon ())
      in
      if got <> oracle then
        QCheck.Test.fail_reportf "%s: oracle %s <> intervals %s" label
          (pp_truth_outcome oracle) (pp_truth_outcome got))
    [
      ("shuffled", updates);
      ("sorted", List.sort Ground_truth.compare_updates updates);
    ];
  true

let test_ground_truth_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"intervals = interpreter oracle"
       arb_truth_case ground_truth_matches_oracle)

(* --- Metrics --- *)

let occ ?(verdict = Occurrence.Positive) ~t () =
  {
    Occurrence.detect_time = ms (t + 5);
    trigger = update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t;
    verdict;
  }

let truth_iv a b = { Ground_truth.t_start = ms a; t_end = ms b }

let test_metrics_matching () =
  let truth = [ truth_iv 10 20; truth_iv 50 60 ] in
  let detections = [ occ ~t:12 (); occ ~t:55 (); occ ~t:90 () ] in
  let s = Metrics.score ~truth ~detections () in
  Alcotest.(check int) "tp" 2 s.Metrics.tp;
  Alcotest.(check int) "fp" 1 s.Metrics.fp;
  Alcotest.(check int) "fn" 0 s.Metrics.fn;
  Alcotest.(check (float 1e-9)) "precision" (2.0 /. 3.0) s.Metrics.precision;
  Alcotest.(check (float 1e-9)) "recall" 1.0 s.Metrics.recall

let test_metrics_duplicates () =
  let truth = [ truth_iv 10 20 ] in
  let detections = [ occ ~t:12 (); occ ~t:15 () ] in
  let s = Metrics.score ~truth ~detections () in
  Alcotest.(check int) "tp" 1 s.Metrics.tp;
  Alcotest.(check int) "dup not fp" 0 s.Metrics.fp;
  Alcotest.(check int) "duplicates" 1 s.Metrics.duplicates

let test_metrics_fn () =
  let truth = [ truth_iv 10 20; truth_iv 50 60 ] in
  let s = Metrics.score ~truth ~detections:[ occ ~t:12 () ] () in
  Alcotest.(check int) "fn" 1 s.Metrics.fn;
  Alcotest.(check (float 1e-9)) "recall" 0.5 s.Metrics.recall

let test_metrics_tolerance () =
  let truth = [ truth_iv 10 20 ] in
  let d = [ occ ~t:22 () ] in
  let strict = Metrics.score ~truth ~detections:d () in
  Alcotest.(check int) "miss without tolerance" 0 strict.Metrics.tp;
  let lax = Metrics.score ~tolerance:(ms 5) ~truth ~detections:d () in
  Alcotest.(check int) "hit with tolerance" 1 lax.Metrics.tp

let test_metrics_borderline_policies () =
  let truth = [ truth_iv 10 20 ] in
  let d = [ occ ~verdict:Occurrence.Borderline ~t:12 () ] in
  let pos = Metrics.score ~policy:Metrics.As_positive ~truth ~detections:d () in
  Alcotest.(check int) "as positive tp" 1 pos.Metrics.tp;
  let neg = Metrics.score ~policy:Metrics.As_negative ~truth ~detections:d () in
  Alcotest.(check int) "as negative fn" 1 neg.Metrics.fn;
  Alcotest.(check int) "borderline counted" 1 neg.Metrics.borderline;
  let drop = Metrics.score ~policy:Metrics.Drop ~truth ~detections:d () in
  Alcotest.(check int) "drop detections" 0 drop.Metrics.detections

(* Property: accounting identities hold for arbitrary truth/detection
   configurations. *)
let test_metrics_identities =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"metrics: accounting identities"
       QCheck.(pair (small_list (pair (int_bound 50) (int_bound 20)))
                 (small_list (int_bound 1500)))
       (fun (truth_spec, det_times) ->
         (* Disjoint, ordered truth intervals. *)
         let _, truth =
           List.fold_left
             (fun (t, acc) (gap, dur) ->
               let t0 = t + gap + 1 in
               let t1 = t0 + dur + 1 in
               (t1, { Ground_truth.t_start = ms t0; t_end = ms t1 } :: acc))
             (0, []) truth_spec
         in
         let truth = List.rev truth in
         let detections = List.map (fun t -> occ ~t ()) det_times in
         let s = Metrics.score ~truth ~detections () in
         s.Metrics.tp + s.Metrics.fn = s.Metrics.truth_count
         && s.Metrics.tp + s.Metrics.fp + s.Metrics.duplicates
            = s.Metrics.detections
         && s.Metrics.tp <= s.Metrics.truth_count
         && s.Metrics.precision >= 0.0 && s.Metrics.precision <= 1.0
         && s.Metrics.recall >= 0.0 && s.Metrics.recall <= 1.0))

let test_metrics_empty () =
  let s = Metrics.score ~truth:[] ~detections:[] () in
  Alcotest.(check (float 1e-9)) "precision 1 on empty" 1.0 s.Metrics.precision;
  Alcotest.(check (float 1e-9)) "recall 1 on empty" 1.0 s.Metrics.recall

(* --- Checker state --- *)

let test_checker_state_transitions () =
  let st = Checker_state.create ~init:init_ab conj_ab in
  Alcotest.(check bool) "initially false" false (Checker_state.holds st);
  let tr, prev =
    Checker_state.apply st (update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t:1)
  in
  Alcotest.(check bool) "same" true (tr = Checker_state.Same);
  Alcotest.(check bool) "prev recorded" true (prev = Some (Value.Bool false));
  let tr, _ =
    Checker_state.apply st (update ~src:1 ~var:"b" ~value:(Value.Bool true) ~seq:0 ~t:2)
  in
  Alcotest.(check bool) "rose" true (tr = Checker_state.Rose);
  let tr, _ =
    Checker_state.apply st (update ~src:0 ~var:"a" ~value:(Value.Bool false) ~seq:1 ~t:3)
  in
  Alcotest.(check bool) "fell" true (tr = Checker_state.Fell)

let test_checker_state_override () =
  let st = Checker_state.create ~init:init_ab conj_ab in
  ignore (Checker_state.apply st (update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t:1));
  ignore (Checker_state.apply st (update ~src:1 ~var:"b" ~value:(Value.Bool true) ~seq:0 ~t:2));
  Alcotest.(check bool) "holds" true (Checker_state.holds st);
  Alcotest.(check bool) "override kills" false
    (Checker_state.eval_with_override st ~var:{ Expr.name = "a"; loc = 0 }
       ~value:(Some (Value.Bool false)));
  Alcotest.(check bool) "override unbound kills" false
    (Checker_state.eval_with_override st ~var:{ Expr.name = "a"; loc = 0 }
       ~value:None);
  (* Committed state untouched. *)
  Alcotest.(check bool) "still holds" true (Checker_state.holds st)

(* Checker_state against a reference written here: a Hashtbl env read
   through the interpreter's [Expr.holds].  Scripts of applies and
   overrides run over three predicate shapes — the hall's linear sum, an
   [And] spine with a variable in two conjuncts, and an [Or]/[Not] over a
   float comparison — with ints and floats (floats take the sum off its
   fast path), unbound variables, variables no predicate reads, and
   [None] overrides. *)
type cs_op =
  | Cs_apply of Expr.var * Value.t
  | Cs_override of Expr.var * Value.t option

let cs_shapes =
  let v name loc = Expr.var ~name ~loc in
  Expr.
    [
      ( "hall sum",
        sum [ v "x" 0 -? v "y" 0; v "x" 1 -? v "y" 1 ] >? int 1 );
      ( "and spine",
        (v "a" 0 >=? int 1) &&& (v "b" 1 <? int 2) &&& (v "c" 2 ==? int 0)
        &&& (v "a" 0 <>? int 3) );
      ( "or/not float",
        not_ (v "t" 0 >? float 1.5) ||| (v "t" 0 *? v "h" 1 >=? float 2.25) );
    ]

let cs_gen_var p =
  QCheck.Gen.oneofl
    (Expr.vars p @ [ { Expr.name = "u"; loc = 1 }; { Expr.name = "x"; loc = 3 } ])

let cs_gen_value =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Value.Int i) (int_range (-1) 3));
        (1, map (fun i -> Value.Float (float_of_int i +. 0.5)) (int_range (-1) 2));
      ])

let cs_gen_case =
  QCheck.Gen.(
    oneofl cs_shapes >>= fun (name, p) ->
    let var = cs_gen_var p in
    map2
      (fun init ops -> (name, p, init, ops))
      (list_size (int_range 0 4) (pair var cs_gen_value))
      (list_size (int_range 0 40)
         (frequency
            [
              (3, map2 (fun v x -> Cs_apply (v, x)) var cs_gen_value);
              (1, map2 (fun v x -> Cs_override (v, x)) var (opt cs_gen_value));
            ])))

let cs_print (name, _, init, ops) =
  let var (v : Expr.var) = Printf.sprintf "%s_%d" v.name v.loc in
  let value = function None -> "unbound" | Some x -> Value.to_string x in
  Printf.sprintf "%s; init [%s]; ops [%s]" name
    (String.concat "; "
       (List.map (fun (v, x) -> var v ^ "=" ^ Value.to_string x) init))
    (String.concat "; "
       (List.map
          (function
            | Cs_apply (v, x) -> var v ^ ":=" ^ Value.to_string x
            | Cs_override (v, x) -> var v ^ "?=" ^ value x)
          ops))

let checker_state_matches_reference (_, p, init, ops) =
  let reads = Expr.vars p in
  let env = Hashtbl.create 8 in
  List.iter (fun (v, x) -> Hashtbl.replace env v x) init;
  let holds_with v x =
    Expr.holds ~env:(fun w -> if w = v then x else Hashtbl.find_opt env w) p
  in
  let st = Checker_state.create ~init p in
  let committed = ref (Expr.holds ~env:(Hashtbl.find_opt env) p) in
  let agree what ok =
    if not ok then QCheck.Test.fail_reportf "%s disagrees" what
  in
  agree "create" (Checker_state.holds st = !committed);
  List.iteri
    (fun i op ->
      (match op with
      | Cs_apply (v, x) ->
          let prev_ref = Hashtbl.find_opt env v in
          Hashtbl.replace env v x;
          let now = Expr.holds ~env:(Hashtbl.find_opt env) p in
          let tr_ref =
            match (!committed, now) with
            | false, true -> Checker_state.Rose
            | true, false -> Checker_state.Fell
            | _ -> Checker_state.Same
          in
          committed := now;
          let tr, prev =
            Checker_state.apply st
              (update ~src:v.Expr.loc ~var:v.Expr.name ~value:x ~seq:i ~t:i)
          in
          agree "transition" (tr = tr_ref);
          agree "prev" (prev = if List.mem v reads then prev_ref else None)
      | Cs_override (v, x) ->
          agree "override"
            (Checker_state.eval_with_override st ~var:v ~value:x = holds_with v x);
          (* The next answer is the committed one: evaluate afresh
             through another variable, bound to its committed value. *)
          let w = List.find (fun w -> w <> v) reads in
          agree "after override"
            (Checker_state.eval_with_override st ~var:w
               ~value:(Hashtbl.find_opt env w)
            = !committed));
      agree "holds" (Checker_state.holds st = !committed))
    ops;
  true

let test_checker_state_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"= Hashtbl + Expr.holds reference"
       (QCheck.make ~print:cs_print cs_gen_case)
       checker_state_matches_reference)

(* --- Detector harness helpers --- *)

(* Script: (time_ms, src, var, value) emissions; runs detector to quiescence
   plus horizon. *)
let run_script ~make ~script ~horizon_ms =
  let engine = Engine.create ~seed:99L () in
  let detector = make engine in
  List.iter
    (fun (t, src, var, value) ->
      ignore
        (Engine.schedule_at engine (ms t) (fun () ->
             Detector.emit detector ~src ~var value)))
    script;
  Engine.run ~until:(ms horizon_ms) engine;
  detector

let ab_script =
  [
    (100, 0, "a", Value.Bool true);
    (200, 1, "b", Value.Bool true);   (* rise *)
    (300, 0, "a", Value.Bool false);  (* fall *)
    (400, 1, "b", Value.Bool false);
    (500, 0, "a", Value.Bool true);
    (550, 1, "b", Value.Bool true);   (* rise *)
    (600, 1, "b", Value.Bool false);  (* fall *)
  ]

let small_delay =
  Psn_sim.Delay_model.bounded_uniform ~min:(ms 1) ~max:(ms 5)

(* The interval-queue detectors, one per partial-order modality. *)
let definitely = D.Interval_detector.create ~mode:D.Interval_detector.Definitely
let possibly = D.Interval_detector.create ~mode:D.Interval_detector.Possibly

let test_strobe_vector_detects () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Linearizer.for_clock ~clock:Clock_kind.Strobe_vector ~init:init_ab
          engine ~n:2 ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  let occs = Detector.occurrences detector in
  Alcotest.(check int) "two rises" 2 (List.length occs);
  Alcotest.(check int) "updates logged" 7 (List.length (Detector.updates detector));
  (* Score against its own ground truth. *)
  let truth =
    Ground_truth.intervals ~init:init_ab ~updates:(Detector.updates detector)
      ~predicate:conj_ab ~horizon:(ms 1000) ()
  in
  let s = Metrics.score ~truth ~detections:occs () in
  Alcotest.(check int) "all tp" 2 s.Metrics.tp;
  Alcotest.(check int) "no fp" 0 s.Metrics.fp

let test_strobe_scalar_detects () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Linearizer.for_clock ~clock:Clock_kind.Strobe_scalar ~init:init_ab
          engine ~n:2 ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  Alcotest.(check int) "two rises" 2 (List.length (Detector.occurrences detector))

let test_physical_detects () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Linearizer.for_clock ~clock:Clock_kind.Perfect_physical ~init:init_ab
          engine ~n:2 ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  Alcotest.(check int) "two rises" 2 (List.length (Detector.occurrences detector))

let test_lamport_detects () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Linearizer.for_clock ~clock:Clock_kind.Logical_scalar ~init:init_ab
          engine ~n:2 ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  Alcotest.(check int) "two rises" 2 (List.length (Detector.occurrences detector));
  (* Unicast baseline: far fewer messages than a broadcast detector. *)
  Alcotest.(check bool) "unicast cheap" true (Detector.messages_sent detector <= 7)

let test_causal_vector_detects () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Linearizer.for_clock ~clock:Clock_kind.Logical_vector ~init:init_ab
          engine ~n:2 ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  (* Cross-sensor updates are concurrent under causal vectors: rises land
     in the borderline bin but are still reported. *)
  Alcotest.(check int) "two rises" 2 (List.length (Detector.occurrences detector))

let test_hlc_detects () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Linearizer.for_clock
          ~clock:(Clock_kind.Hybrid_logical
                    { max_offset = ms 20; max_drift_ppm = 50.0 })
          ~init:init_ab engine ~n:2 ~delay:small_delay ~hold:(ms 5)
          ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  Alcotest.(check int) "two rises" 2 (List.length (Detector.occurrences detector))

let test_once_hangs () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Linearizer.for_clock ~clock:Clock_kind.Strobe_vector
          ~init:init_ab ~once:true engine ~n:2
          ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  Alcotest.(check int) "hangs after first" 1
    (List.length (Detector.occurrences detector))

let test_on_occurrence_hook () =
  let engine = Engine.create ~seed:99L () in
  let detector =
    D.Linearizer.for_clock ~clock:Clock_kind.Strobe_vector ~init:init_ab
      engine ~n:2 ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab
  in
  let hook_count = ref 0 in
  Detector.set_on_occurrence detector (fun _ -> incr hook_count);
  List.iter
    (fun (t, src, var, value) ->
      ignore
        (Engine.schedule_at engine (ms t) (fun () ->
             Detector.emit detector ~src ~var value)))
    ab_script;
  Engine.run ~until:(ms 1000) engine;
  Alcotest.(check int) "hook fired per occurrence" 2 !hook_count

let test_race_flagged_borderline () =
  (* Two concurrent rises within the hold window: the strobe vector
     checker must flag the rise as borderline. *)
  let script =
    [
      (100, 0, "a", Value.Bool true);
      (101, 1, "b", Value.Bool true);  (* concurrent with a's strobe *)
    ]
  in
  let detector =
    run_script
      ~make:(fun engine ->
        D.Linearizer.for_clock ~clock:Clock_kind.Strobe_vector ~init:init_ab
          engine ~n:2
          ~delay:(Psn_sim.Delay_model.bounded_uniform ~min:(ms 20) ~max:(ms 30))
          ~hold:(ms 30) ~predicate:conj_ab)
      ~script ~horizon_ms:1000
  in
  match Detector.occurrences detector with
  | [ o ] -> Alcotest.(check bool) "borderline" true (Occurrence.is_borderline o)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 occurrence, got %d" (List.length l))

let test_unrelated_rise_not_borderline () =
  (* Rises far apart in time are not races. *)
  let detector =
    run_script
      ~make:(fun engine ->
        D.Linearizer.for_clock ~clock:Clock_kind.Strobe_vector ~init:init_ab
          engine ~n:2 ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  List.iter
    (fun o ->
      Alcotest.(check bool) "positive" false (Occurrence.is_borderline o))
    (Detector.occurrences detector)

let test_loss_drops_updates () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Linearizer.for_clock ~clock:Clock_kind.Strobe_vector
          ~loss:(Psn_sim.Loss_model.bernoulli 1.0)
          ~init:init_ab engine ~n:2 ~delay:small_delay ~hold:(ms 5)
          ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  (* Everything from process 1 is lost; only process 0's local updates
     reach the checker, so the conjunction never rises. *)
  Alcotest.(check int) "no detection" 0 (List.length (Detector.occurrences detector));
  Alcotest.(check bool) "drops counted" true (Detector.messages_dropped detector > 0)

(* --- Arena stamps vs copy stamps --- *)

(* [Linearizer.for_clock] keeps vector stamps as handles into a
   per-detector stamp plane.  The copy-stamp disciplines below — a fresh
   array per stamp — are the oracle: with the same seed, both must log
   the same updates, report the same occurrences (same anchors, same
   verdicts), and — since stamps never appear in trace events — emit
   byte-identical JSONL traces. *)

module Vc = Psn_clocks.Vector_clock

let copy_vector ~name ~stamp_words ~stamp ~receive =
  {
    D.Linearizer.name;
    stamp_of_emit = stamp;
    on_receive = receive;
    compare =
      (fun a b ->
        let c = Int.compare (Vc.total a) (Vc.total b) in
        if c <> 0 then c else Stdlib.compare a b);
    race = Vc.concurrent;
    arrival_tie_break = true;
    stamp_words;
  }

let copy_strobe_vector ~n =
  let module Sv = Psn_clocks.Strobe_vector in
  let clocks = Array.init n (fun me -> Sv.create ~n ~me) in
  copy_vector ~name:"strobe-vector" ~stamp_words:(Sv.stamp_size_words n)
    ~stamp:(fun ~src -> Sv.tick_and_strobe clocks.(src))
    ~receive:(fun ~dst s -> Sv.receive_strobe clocks.(dst) s)

let copy_causal_vector ~n =
  let clocks = Array.init n (fun me -> Vc.create ~n ~me) in
  copy_vector ~name:"causal-vector-unicast" ~stamp_words:n
    ~stamp:(fun ~src -> Vc.send clocks.(src))
    ~receive:(fun ~dst s -> ignore (Vc.receive clocks.(dst) s))

let run_script_traced ~make ~script ~horizon_ms =
  let sink = Psn_obs.Trace.create () in
  let engine = Engine.create ~seed:99L ~tracer:sink () in
  let detector = make engine in
  List.iter
    (fun (t, src, var, value) ->
      ignore
        (Engine.schedule_at engine (ms t) (fun () ->
             Detector.emit detector ~src ~var value)))
    script;
  Engine.run ~until:(ms horizon_ms) engine;
  (detector, Psn_obs.Export.jsonl_string sink)

let check_arena_vs_copy name ~script (arena, copy) =
  let arena_d, arena_tr =
    run_script_traced ~make:arena ~script ~horizon_ms:1000
  in
  let copy_d, copy_tr = run_script_traced ~make:copy ~script ~horizon_ms:1000 in
  Alcotest.(check bool)
    (name ^ ": occurrences equal") true
    (Detector.occurrences arena_d = Detector.occurrences copy_d);
  Alcotest.(check bool)
    (name ^ ": updates equal") true
    (Detector.updates arena_d = Detector.updates copy_d);
  Alcotest.(check bool)
    (name ^ ": trace non-empty") true
    (String.length arena_tr > 0);
  Alcotest.(check string) (name ^ ": traces byte-identical") copy_tr arena_tr

let race_script =
  [ (100, 0, "a", Value.Bool true); (101, 1, "b", Value.Bool true) ]

let test_arena_matches_copy () =
  let arena clock engine =
    D.Linearizer.for_clock ~clock ~init:init_ab engine ~n:2 ~delay:small_delay
      ~hold:(ms 5) ~predicate:conj_ab
  in
  let copy ~unicast discipline engine =
    D.Linearizer.create ~init:init_ab engine ~n:2 ~delay:small_delay
      ~predicate:conj_ab ~discipline:(discipline ~n:2)
      ~cfg:{ D.Linearizer.hold = ms 5; once = false; unicast }
  in
  let strobe =
    (arena Clock_kind.Strobe_vector, copy ~unicast:false copy_strobe_vector)
  in
  let causal =
    (arena Clock_kind.Logical_vector, copy ~unicast:true copy_causal_vector)
  in
  check_arena_vs_copy "strobe-vector" ~script:ab_script strobe;
  check_arena_vs_copy "causal-vector" ~script:ab_script causal;
  (* A racy script so the borderline path (concurrency verdicts over
     plane handles vs copied stamps) is exercised too. *)
  check_arena_vs_copy "strobe-vector race" ~script:race_script strobe;
  check_arena_vs_copy "causal-vector race" ~script:race_script causal

(* --- Wire size per clock ---

   An update message is its stamp plus two words, so each row's traffic
   pins its stamp width: one word for the scalar and physical readings
   (raw hardware readings included), n for the vectors, two for HLC's
   (l, c). *)

let test_wire_size_per_clock () =
  let n = 3 in
  let script = ab_script @ [ (700, 2, "c", Value.Bool true) ] in
  List.iter
    (fun (clock, w) ->
      let name = Clock_kind.to_string clock in
      let d =
        run_script
          ~make:(fun engine ->
            D.Linearizer.for_clock ~clock ~init:init_ab engine ~n
              ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
          ~script ~horizon_ms:1000
      in
      let msgs = Detector.messages_sent d in
      Alcotest.(check bool) (name ^ " sends") true (msgs > 0);
      Alcotest.(check int)
        (name ^ " words") (msgs * (w + 2)) (Detector.words_sent d))
    [
      (Clock_kind.Perfect_physical, 1);
      (Clock_kind.Synced_physical { eps = ms 1 }, 1);
      (Clock_kind.Logical_scalar, 1);
      (Clock_kind.Strobe_scalar, 1);
      (Clock_kind.Physical_vector, 1);
      (Clock_kind.Logical_vector, n);
      (Clock_kind.Strobe_vector, n);
      ( Clock_kind.Hybrid_logical { max_offset = ms 20; max_drift_ppm = 50.0 },
        2 );
    ]

(* --- Definitely detector --- *)

let test_definitely_basic () =
  let detector =
    run_script
      ~make:(fun engine ->
        definitely ~init:init_ab engine ~n:2 ~delay:small_delay
          ~horizon:(ms 1000) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1100
  in
  Alcotest.(check int) "two definite overlaps" 2
    (List.length (Detector.occurrences detector))

let test_definitely_no_overlap () =
  (* a and b never hold together: no detection. *)
  let script =
    [
      (100, 0, "a", Value.Bool true);
      (200, 0, "a", Value.Bool false);
      (300, 1, "b", Value.Bool true);
      (400, 1, "b", Value.Bool false);
    ]
  in
  let detector =
    run_script
      ~make:(fun engine ->
        definitely ~init:init_ab engine ~n:2 ~delay:small_delay
          ~horizon:(ms 1000) ~predicate:conj_ab)
      ~script ~horizon_ms:1100
  in
  Alcotest.(check int) "no detection" 0 (List.length (Detector.occurrences detector))

let test_definitely_repeats_within_long_interval () =
  (* b stays true while a pulses three times: three occurrences. *)
  let script =
    [
      (50, 1, "b", Value.Bool true);
      (100, 0, "a", Value.Bool true);
      (200, 0, "a", Value.Bool false);
      (300, 0, "a", Value.Bool true);
      (400, 0, "a", Value.Bool false);
      (500, 0, "a", Value.Bool true);
      (600, 0, "a", Value.Bool false);
      (700, 1, "b", Value.Bool false);
    ]
  in
  let detector =
    run_script
      ~make:(fun engine ->
        definitely ~init:init_ab engine ~n:2 ~delay:small_delay
          ~horizon:(ms 1000) ~predicate:conj_ab)
      ~script ~horizon_ms:1100
  in
  Alcotest.(check int) "three occurrences" 3
    (List.length (Detector.occurrences detector))

let test_definitely_open_interval_closed_at_horizon () =
  (* Both conjuncts still true at the horizon: the final flush must close
     the intervals and detect. *)
  let script =
    [ (100, 0, "a", Value.Bool true); (200, 1, "b", Value.Bool true) ]
  in
  let detector =
    run_script
      ~make:(fun engine ->
        definitely ~init:init_ab engine ~n:2 ~delay:small_delay
          ~horizon:(ms 500) ~predicate:conj_ab)
      ~script ~horizon_ms:600
  in
  Alcotest.(check int) "detected at horizon" 1
    (List.length (Detector.occurrences detector))

let test_definitely_rejects_relational () =
  let engine = Engine.create () in
  let relational = Expr.(var ~name:"x" ~loc:0 +? var ~name:"y" ~loc:1 >? int 0) in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (definitely engine ~n:2 ~delay:small_delay
            ~horizon:(ms 100) ~predicate:relational);
       false
     with Invalid_argument _ -> true)

let test_definitely_once () =
  let detector =
    run_script
      ~make:(fun engine ->
        definitely ~once:true ~init:init_ab engine ~n:2 ~delay:small_delay
          ~horizon:(ms 1000) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1100
  in
  Alcotest.(check int) "hangs" 1 (List.length (Detector.occurrences detector))

(* Cross-detector property: at delta=0, scalar and vector strobes produce
   the same detections on any script (paper 4.2.3 item 5). *)
let test_sync_equivalence_scripted () =
  let scripts =
    [
      ab_script;
      [
        (10, 0, "a", Value.Bool true); (10, 1, "b", Value.Bool true);
        (20, 0, "a", Value.Bool false); (30, 1, "b", Value.Bool false);
      ];
    ]
  in
  List.iter
    (fun script ->
      let run make = run_script ~make ~script ~horizon_ms:1000 in
      let sv =
        run (fun engine ->
            D.Linearizer.for_clock ~clock:Clock_kind.Strobe_vector ~init:init_ab
              engine ~n:2
              ~delay:Psn_sim.Delay_model.synchronous ~hold:Sim_time.zero
              ~predicate:conj_ab)
      in
      let ss =
        run (fun engine ->
            D.Linearizer.for_clock ~clock:Clock_kind.Strobe_scalar ~init:init_ab
              engine ~n:2
              ~delay:Psn_sim.Delay_model.synchronous ~hold:Sim_time.zero
              ~predicate:conj_ab)
      in
      let times d =
        List.map (fun o -> Occurrence.est_time o) (Detector.occurrences d)
      in
      Alcotest.(check int) "same count"
        (List.length (times sv)) (List.length (times ss));
      List.iter2
        (fun a b -> Alcotest.(check bool) "same anchors" true (Sim_time.equal a b))
        (times sv) (times ss))
    scripts

(* --- Possibly detector --- *)

let test_possibly_basic () =
  let detector =
    run_script
      ~make:(fun engine ->
        possibly ~init:init_ab engine ~n:2 ~delay:small_delay ~horizon:(ms 1000)
          ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1100
  in
  Alcotest.(check int) "two possible overlaps" 2
    (List.length (Detector.occurrences detector))

let test_possibly_superset_of_definitely () =
  (* Nearly-touching pulses with large delay: concurrency galore. The
     possibly count must dominate the definitely count. *)
  let script =
    List.concat_map
      (fun k ->
        let base = 1000 * k in
        [
          (base + 100, 0, "a", Value.Bool true);
          (base + 140, 0, "a", Value.Bool false);
          (base + 130, 1, "b", Value.Bool true);
          (base + 170, 1, "b", Value.Bool false);
        ])
      [ 0; 1; 2; 3; 4 ]
  in
  let big_delay = Psn_sim.Delay_model.bounded_uniform ~min:(ms 50) ~max:(ms 200) in
  let run_mode make = run_script ~make ~script ~horizon_ms:6000 in
  let poss =
    run_mode (fun engine ->
        possibly ~init:init_ab engine ~n:2 ~delay:big_delay ~horizon:(ms 5800)
          ~predicate:conj_ab)
  in
  let defi =
    run_mode (fun engine ->
        definitely ~init:init_ab engine ~n:2 ~delay:big_delay ~horizon:(ms 5800)
          ~predicate:conj_ab)
  in
  let np = List.length (Detector.occurrences poss) in
  let nd = List.length (Detector.occurrences defi) in
  Alcotest.(check bool) "possibly >= definitely" true (np >= nd);
  Alcotest.(check bool) "possibly finds the racy overlaps" true (np >= 4)

let test_possibly_none_when_disjoint () =
  let script =
    [
      (100, 0, "a", Value.Bool true);
      (200, 0, "a", Value.Bool false);
      (5000, 1, "b", Value.Bool true);
      (5100, 1, "b", Value.Bool false);
    ]
  in
  let detector =
    run_script
      ~make:(fun engine ->
        possibly ~init:init_ab engine ~n:2 ~delay:small_delay ~horizon:(ms 6000)
          ~predicate:conj_ab)
      ~script ~horizon_ms:6100
  in
  (* With fast strobes, a's interval is causally closed long before b
     opens: not even possibly concurrent. *)
  Alcotest.(check int) "no detection" 0 (List.length (Detector.occurrences detector))

(* --- Timed relations --- *)

module Timed = Psn_predicates.Timed
module Timed_eval = D.Timed_eval

let pulse_updates spec_pulses =
  (* spec_pulses: (src, var, start_ms, end_ms) list *)
  List.concat_map
    (fun (src, var, t0, t1) ->
      [
        update ~src ~var ~value:(Value.Bool true) ~seq:(2 * t0) ~t:t0;
        update ~src ~var ~value:(Value.Bool false) ~seq:((2 * t0) + 1) ~t:t1;
      ])
    spec_pulses

let timed_spec relation =
  Timed.make ~name:"t"
    ~x:Expr.(var ~name:"a" ~loc:0 ==? bool true)
    ~y:Expr.(var ~name:"b" ~loc:1 ==? bool true)
    ~relation

let test_timed_before () =
  let updates = pulse_updates [ (0, "a", 100, 200); (1, "b", 300, 400) ] in
  Alcotest.(check bool) "before" true
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec Timed.Before));
  Alcotest.(check bool) "before by >= 50ms" true
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec (Timed.Before_by_at_least (ms 50))));
  Alcotest.(check bool) "not before by >= 150ms" false
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec (Timed.Before_by_at_least (ms 150))));
  Alcotest.(check bool) "within 150ms" true
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec (Timed.Before_within (ms 150))));
  Alcotest.(check bool) "not within 50ms" false
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec (Timed.Before_within (ms 50))))

let test_timed_overlaps_contains () =
  let updates = pulse_updates [ (0, "a", 100, 400); (1, "b", 200, 300) ] in
  Alcotest.(check bool) "overlaps" true
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec Timed.Overlaps));
  Alcotest.(check bool) "contains" true
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec Timed.Contains));
  Alcotest.(check bool) "not before" false
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec Timed.Before))

let test_timed_classify_y () =
  (* Two b-pulses: one justified by a preceding a, one not. *)
  let updates =
    pulse_updates
      [ (0, "a", 100, 200); (1, "b", 250, 300); (1, "b", 5000, 5100) ]
  in
  let matched, unmatched =
    Timed_eval.classify_y ~init:init_ab ~updates ~horizon:(ms 6000)
      (timed_spec (Timed.Before_within (ms 100)))
  in
  Alcotest.(check int) "one justified" 1 (List.length matched);
  Alcotest.(check int) "one alarm" 1 (List.length unmatched)

(* Property: Definitely is sound — every occurrence it reports corresponds
   to a real-time overlap of the conjunct pulses, whatever the delays. *)
let test_definitely_soundness =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"definitely: precision 1 on random pulses"
       QCheck.(pair int (list (pair (int_bound 1) (pair (int_bound 400) (int_bound 200)))))
       (fun (seed, pulses) ->
         QCheck.assume (pulses <> []);
         (* Build non-overlapping-per-process pulse scripts. *)
         let next_free = [| 0; 0 |] in
         let script =
           List.concat_map
             (fun (src, (gap, dur)) ->
               let t0 = next_free.(src) + gap + 1 in
               let t1 = t0 + dur + 1 in
               next_free.(src) <- t1 + 1;
               [
                 (t0, src, (if src = 0 then "a" else "b"), Value.Bool true);
                 (t1, src, (if src = 0 then "a" else "b"), Value.Bool false);
               ])
             pulses
         in
         let horizon_ms = 5000 + List.length script * 700 in
         let engine = Engine.create ~seed:(Int64.of_int seed) () in
         let delay =
           Psn_sim.Delay_model.bounded_uniform ~min:(ms 1) ~max:(ms 300)
         in
         let detector =
           definitely ~init:init_ab engine ~n:2 ~delay
             ~horizon:(ms (horizon_ms - 100)) ~predicate:conj_ab
         in
         List.iter
           (fun (t, src, var, value) ->
             ignore
               (Engine.schedule_at engine (ms t) (fun () ->
                    Detector.emit detector ~src ~var value)))
           script;
         Engine.run ~until:(ms horizon_ms) engine;
         let truth =
           Ground_truth.intervals ~init:init_ab
             ~updates:(Detector.updates detector) ~predicate:conj_ab
             ~horizon:(ms (horizon_ms - 100)) ()
         in
         let s =
           Metrics.score ~truth ~detections:(Detector.occurrences detector) ()
         in
         (* Soundness: no false positives, no duplicate claims. *)
         s.Metrics.fp = 0))

let test_timed_pp () =
  let s = Fmt.str "%a" Timed.pp (timed_spec (Timed.Before_within (Sim_time.of_sec 5))) in
  Alcotest.(check bool) "mentions relation" true
    (String.length s > 0)

let () =
  Alcotest.run "psn_detection"
    [
      ( "ground_truth",
        [
          Alcotest.test_case "basic" `Quick test_ground_truth_basic;
          Alcotest.test_case "open at horizon" `Quick test_ground_truth_open_at_horizon;
          Alcotest.test_case "unbound false" `Quick test_ground_truth_unbound_false;
          Alcotest.test_case "initially true" `Quick test_ground_truth_initially_true;
          Alcotest.test_case "multiple" `Quick test_ground_truth_multiple_occurrences;
          Alcotest.test_case "horizon cutoff" `Quick
            test_ground_truth_ignores_after_horizon;
          test_ground_truth_oracle;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "matching" `Quick test_metrics_matching;
          Alcotest.test_case "duplicates" `Quick test_metrics_duplicates;
          Alcotest.test_case "fn" `Quick test_metrics_fn;
          Alcotest.test_case "tolerance" `Quick test_metrics_tolerance;
          Alcotest.test_case "borderline policies" `Quick
            test_metrics_borderline_policies;
          Alcotest.test_case "empty" `Quick test_metrics_empty;
          test_metrics_identities;
        ] );
      ( "checker_state",
        [
          Alcotest.test_case "transitions" `Quick test_checker_state_transitions;
          Alcotest.test_case "override" `Quick test_checker_state_override;
          test_checker_state_reference;
        ] );
      ( "linearizing detectors",
        [
          Alcotest.test_case "strobe vector" `Quick test_strobe_vector_detects;
          Alcotest.test_case "strobe scalar" `Quick test_strobe_scalar_detects;
          Alcotest.test_case "physical" `Quick test_physical_detects;
          Alcotest.test_case "lamport unicast" `Quick test_lamport_detects;
          Alcotest.test_case "causal vector unicast" `Quick test_causal_vector_detects;
          Alcotest.test_case "hlc" `Quick test_hlc_detects;
          Alcotest.test_case "once hangs" `Quick test_once_hangs;
          Alcotest.test_case "occurrence hook" `Quick test_on_occurrence_hook;
          Alcotest.test_case "race borderline" `Quick test_race_flagged_borderline;
          Alcotest.test_case "no spurious borderline" `Quick
            test_unrelated_rise_not_borderline;
          Alcotest.test_case "total loss" `Quick test_loss_drops_updates;
          Alcotest.test_case "delta=0 equivalence" `Quick
            test_sync_equivalence_scripted;
          Alcotest.test_case "arena = copy (incl. traces)" `Quick
            test_arena_matches_copy;
          Alcotest.test_case "wire size per clock" `Quick
            test_wire_size_per_clock;
        ] );
      ( "possibly",
        [
          Alcotest.test_case "basic" `Quick test_possibly_basic;
          Alcotest.test_case "superset of definitely" `Quick
            test_possibly_superset_of_definitely;
          Alcotest.test_case "disjoint" `Quick test_possibly_none_when_disjoint;
        ] );
      ( "timed",
        [
          Alcotest.test_case "before family" `Quick test_timed_before;
          Alcotest.test_case "overlaps/contains" `Quick test_timed_overlaps_contains;
          Alcotest.test_case "classify_y" `Quick test_timed_classify_y;
          Alcotest.test_case "pp" `Quick test_timed_pp;
        ] );
      ( "definitely",
        [
          Alcotest.test_case "basic" `Quick test_definitely_basic;
          Alcotest.test_case "no overlap" `Quick test_definitely_no_overlap;
          Alcotest.test_case "repeats in long interval" `Quick
            test_definitely_repeats_within_long_interval;
          Alcotest.test_case "open at horizon" `Quick
            test_definitely_open_interval_closed_at_horizon;
          Alcotest.test_case "rejects relational" `Quick
            test_definitely_rejects_relational;
          Alcotest.test_case "once hangs" `Quick test_definitely_once;
          test_definitely_soundness;
        ] );
    ]
