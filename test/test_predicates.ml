(* Tests for psn_predicates: expression evaluation, the
   conjunctive/relational classification, modalities and specs. *)

module Expr = Psn_predicates.Expr
module Compiled = Psn_predicates.Compiled
module Modality = Psn_predicates.Modality
module Spec = Psn_predicates.Spec
module Value = Psn_world.Value
open Expr

let env_of bindings (v : Expr.var) =
  List.assoc_opt (v.name, v.loc) bindings

let test_eval_arith () =
  let env = env_of [ (("x", 0), Value.Int 3); (("y", 1), Value.Float 2.5) ] in
  let e = var ~name:"x" ~loc:0 +? var ~name:"y" ~loc:1 in
  Alcotest.(check (float 1e-9)) "add" 5.5 (Value.to_float (eval ~env e));
  let e = (var ~name:"x" ~loc:0 *? int 4) -? int 2 in
  Alcotest.(check (float 1e-9)) "mul/sub" 10.0 (Value.to_float (eval ~env e))

let test_eval_cmp () =
  let env = env_of [ (("x", 0), Value.Int 3) ] in
  Alcotest.(check bool) "gt" true (eval_bool ~env (var ~name:"x" ~loc:0 >? int 2));
  Alcotest.(check bool) "ge" true (eval_bool ~env (var ~name:"x" ~loc:0 >=? int 3));
  Alcotest.(check bool) "lt" false (eval_bool ~env (var ~name:"x" ~loc:0 <? int 3));
  Alcotest.(check bool) "le" true (eval_bool ~env (var ~name:"x" ~loc:0 <=? int 3));
  Alcotest.(check bool) "eq" true (eval_bool ~env (var ~name:"x" ~loc:0 ==? int 3));
  Alcotest.(check bool) "ne" false (eval_bool ~env (var ~name:"x" ~loc:0 <>? int 3));
  Alcotest.(check bool) "int vs float" true
    (eval_bool ~env (var ~name:"x" ~loc:0 <? float 3.5))

let test_eval_bool_ops () =
  let env = env_of [ (("a", 0), Value.Bool true); (("b", 1), Value.Bool false) ] in
  let a = var ~name:"a" ~loc:0 ==? bool true in
  let b = var ~name:"b" ~loc:1 ==? bool true in
  Alcotest.(check bool) "and" false (eval_bool ~env (a &&& b));
  Alcotest.(check bool) "or" true (eval_bool ~env (a ||| b));
  Alcotest.(check bool) "not" true (eval_bool ~env (not_ b))

let test_eval_unbound () =
  let env = env_of [] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (eval_bool ~env (var ~name:"x" ~loc:0 >? int 0));
       false
     with Expr.Unbound_variable v -> v.name = "x" && v.loc = 0);
  Alcotest.(check bool) "holds: unbound is false" false
    (Expr.holds ~env (var ~name:"x" ~loc:0 >? int 0))

let test_eval_type_error () =
  let env = env_of [ (("b", 0), Value.Bool true) ] in
  Alcotest.(check bool) "bool in arith raises" true
    (try
       ignore (eval ~env (var ~name:"b" ~loc:0 +? int 1));
       false
     with Value.Type_error _ -> true);
  Alcotest.(check bool) "holds: type error still raises" true
    (try
       ignore (Expr.holds ~env (var ~name:"b" ~loc:0 +? int 1 >? int 0));
       false
     with Value.Type_error _ -> true)

let test_sum () =
  let env = env_of [ (("x", 0), Value.Int 1); (("x", 1), Value.Int 2) ] in
  let e = sum [ var ~name:"x" ~loc:0; var ~name:"x" ~loc:1 ] in
  Alcotest.(check (float 1e-9)) "sum" 3.0 (Value.to_float (eval ~env e));
  Alcotest.(check (float 1e-9)) "empty sum" 0.0 (Value.to_float (eval ~env (sum [])))

let test_vars_dedup () =
  let e =
    (var ~name:"x" ~loc:0 >? int 1) &&& (var ~name:"x" ~loc:0 <? var ~name:"y" ~loc:1)
  in
  let vs = vars e in
  Alcotest.(check int) "dedup" 2 (List.length vs);
  Alcotest.(check (list int)) "locations" [ 0; 1 ] (locations e)

let test_conjunctive_classification () =
  (* (x_0 = 5) ∧ (y_1 > 7): conjunctive, per the paper's example ψ. *)
  let psi =
    (var ~name:"x" ~loc:0 ==? int 5) &&& (var ~name:"y" ~loc:1 >? int 7)
  in
  Alcotest.(check bool) "psi conjunctive" true (is_conjunctive psi);
  (match conjuncts psi with
  | Some [ (0, _); (1, _) ] -> ()
  | _ -> Alcotest.fail "expected two localized conjuncts");
  (* x_0 + y_1 > 7: relational, per the paper's example φ. *)
  let phi = var ~name:"x" ~loc:0 +? var ~name:"y" ~loc:1 >? int 7 in
  Alcotest.(check bool) "phi relational" false (is_conjunctive phi);
  Alcotest.(check bool) "no decomposition" true (conjuncts phi = None)

let test_conjunctive_nested () =
  (* Nested ANDs flatten; same-location compound conjuncts allowed. *)
  let e =
    (var ~name:"a" ~loc:0 >? int 0)
    &&& ((var ~name:"b" ~loc:1 >? int 0) &&& (var ~name:"c" ~loc:2 >? int 0))
  in
  match conjuncts e with
  | Some l -> Alcotest.(check int) "three conjuncts" 3 (List.length l)
  | None -> Alcotest.fail "expected conjunctive"

let test_conjunct_multi_var_same_loc () =
  let e =
    (var ~name:"a" ~loc:0 >? var ~name:"b" ~loc:0)
    &&& (var ~name:"c" ~loc:1 >? int 0)
  in
  Alcotest.(check bool) "local compound ok" true (is_conjunctive e)

let test_disjunction_not_conjunctive_across_locs () =
  let e = (var ~name:"a" ~loc:0 >? int 0) ||| (var ~name:"b" ~loc:1 >? int 0) in
  Alcotest.(check bool) "cross-loc disjunction relational" false
    (is_conjunctive e)

let test_pp () =
  let e = var ~name:"x" ~loc:0 +? int 1 >? int 2 in
  Alcotest.(check string) "pp" "((x_0 + 1) > 2)" (to_string e)

(* {2 Compiled differential: random predicates × random environments}

   The compiled evaluator must agree with the interpreter on the value
   — or on the exception, constructor for constructor (same unbound
   variable, same [Type_error] message).  Environments deliberately mix
   types and leave variables unbound so both failure modes are hit. *)

let var_pool =
  [ ("x", 0); ("x", 1); ("y", 0); ("y", 2); ("b", 1); ("b", 3); ("s", 2);
    ("s", 3) ]

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_range (-5) 5);
        map (fun f -> Value.Float (float_of_int f /. 2.0)) (int_range (-8) 8);
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.String s) (oneofl [ "a"; "bb"; "z" ]);
      ])

let gen_expr_sized =
  QCheck.Gen.fix (fun self n ->
      QCheck.Gen.(
        let leaf =
          oneof
            [
              map (fun v -> Expr.Const v) gen_value;
              map (fun (name, loc) -> Expr.var ~name ~loc) (oneofl var_pool);
            ]
        in
        if n <= 0 then leaf
        else
          frequency
            [
              (1, leaf);
              (2, map (fun e -> Expr.Not e) (self (n - 1)));
              (3, map2 (fun a b -> Expr.And (a, b)) (self (n / 2)) (self (n / 2)));
              (3, map2 (fun a b -> Expr.Or (a, b)) (self (n / 2)) (self (n / 2)));
              ( 3,
                map3
                  (fun op a b -> Expr.Cmp (op, a, b))
                  (oneofl [ Expr.Eq; Ne; Lt; Le; Gt; Ge ])
                  (self (n / 2)) (self (n / 2)) );
              ( 3,
                map3
                  (fun op a b -> Expr.Arith (op, a, b))
                  (oneofl [ Expr.Add; Sub; Mul ])
                  (self (n / 2)) (self (n / 2)) );
            ]))

let gen_expr = QCheck.Gen.(int_range 0 12 >>= gen_expr_sized)

(* One optional binding per pool variable. *)
let gen_bindings =
  QCheck.Gen.(list_repeat (List.length var_pool) (opt gen_value))

let bindings_to_list opts =
  List.concat
    (List.map2
       (fun (name, loc) v ->
         match v with
         | Some value -> [ ({ Expr.name; loc }, value) ]
         | None -> [])
       var_pool opts)

let pp_bindings bs =
  String.concat "; "
    (List.map
       (fun ((v : Expr.var), value) ->
         Printf.sprintf "%s_%d=%s" v.name v.loc (Value.to_string value))
       bs)

let arb_expr_env =
  QCheck.make
    ~print:(fun (e, opts) ->
      Printf.sprintf "%s under [%s]" (Expr.to_string e)
        (pp_bindings (bindings_to_list opts)))
    QCheck.Gen.(pair gen_expr gen_bindings)

type outcome =
  | Value of Value.t
  | Unbound of Expr.var
  | Type_err of string

let outcome f =
  match f () with
  | v -> Value v
  | exception Expr.Unbound_variable v -> Unbound v
  | exception Value.Type_error m -> Type_err m

let pp_outcome = function
  | Value v -> "value " ^ Value.to_string v
  | Unbound v -> Printf.sprintf "Unbound_variable %s_%d" v.name v.loc
  | Type_err m -> Printf.sprintf "Type_error %S" m

let same_outcome a b =
  match (a, b) with
  | Value a, Value b -> Stdlib.compare a b = 0
  | Unbound a, Unbound b -> a = b
  | Type_err a, Type_err b -> String.equal a b
  | _ -> false

let qtest ?(count = 1000) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let compiled_matches_interp (e, opts) =
  let bindings = bindings_to_list opts in
  let env_fn (v : Expr.var) = List.assoc_opt v bindings in
  let prog = Compiled.compile e in
  let cenv = Compiled.create_env prog in
  List.iter
    (fun (v, value) ->
      let s = Compiled.slot prog v in
      if s >= 0 then Compiled.set cenv s value)
    bindings;
  let oracle = outcome (fun () -> Expr.eval ~env:env_fn e) in
  let compiled = outcome (fun () -> Compiled.eval prog cenv) in
  if not (same_outcome oracle compiled) then
    QCheck.Test.fail_reportf "interp %s <> compiled %s" (pp_outcome oracle)
      (pp_outcome compiled);
  (* Re-running against the same reused scratch stacks must be stable. *)
  let again = outcome (fun () -> Compiled.eval prog cenv) in
  again = compiled

(* {2 Running-sum and conjunct-count differential: update scripts}

   A linear comparison is answered from the env's running sum whenever
   the exactness rule allows, and a conjunction from its conjunct
   count, so the differential drives one env through a script of
   [set]/[set_int]/[clear] and compares with the interpreter after
   every step.  Values straddle both thresholds of the sum's rule:
   small ints, ints near ±2^40, ints in 2^52..2^62 (where float
   rounding shows), and non-[Int] values, which make conjuncts raise. *)

let lin_pool = [ ("x", 0); ("x", 1); ("y", 0); ("y", 2); ("z", 3) ]

(* Conjunctions also read [var_pool]'s variables. *)
let conj_pool = lin_pool @ [ ("b", 1); ("b", 3); ("s", 2); ("s", 3) ]

let gen_script_int =
  QCheck.Gen.(
    map2
      (fun neg v -> if neg then -v else v)
      bool
      (frequency
         [
           (4, int_range 0 5);
           (2, map (fun d -> (1 lsl 40) + d) (int_range (-2) 2));
           (1, map (fun e -> (1 lsl e) + 1) (int_range 52 61));
           (1, int_range (1 lsl 52) max_int);
         ]))

let gen_lin_const =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-20) 20);
        (1, map (fun d -> (1 lsl 53) + d) (int_range (-2) 2));
        (1, map (fun d -> -(1 lsl 53) + d) (int_range (-2) 2));
        (1, gen_script_int);
      ])

(* An [Add]/[Sub] tree of [n] leaves in a random shape; each leaf is a
   pool variable (repeats allowed) or, one time in five, a constant. *)
let rec gen_lin_side n =
  QCheck.Gen.(
    if n <= 1 then
      frequency
        [
          (4, map (fun (name, loc) -> Expr.var ~name ~loc) (oneofl lin_pool));
          (1, map Expr.int gen_lin_const);
        ]
    else
      int_range 1 (n - 1) >>= fun k ->
      map3
        (fun op a b -> Expr.Arith (op, a, b))
        (oneofl [ Expr.Add; Sub ])
        (gen_lin_side k)
        (gen_lin_side (n - k)))

let gen_linear =
  QCheck.Gen.(
    int_range 1 8 >>= fun leaves ->
    int_range 0 leaves >>= fun left ->
    map3
      (fun op a b -> Expr.Cmp (op, a, b))
      (oneofl [ Expr.Eq; Ne; Lt; Le; Gt; Ge ])
      (if left = 0 then map Expr.int gen_lin_const else gen_lin_side left)
      (if left = leaves then map Expr.int gen_lin_const
       else gen_lin_side (leaves - left)))

let cmp_ops = [ Expr.Eq; Ne; Lt; Le; Gt; Ge ]

(* A per-variable comparison, [v op c] with a small constant. *)
let gen_var_cmp (name, loc) =
  QCheck.Gen.map2
    (fun op c -> Expr.Cmp (op, Expr.var ~name ~loc, Expr.int c))
    (QCheck.Gen.oneofl cmp_ops)
    (QCheck.Gen.int_range (-5) 5)

(* The conjuncts, in order, joined into a left-nested, right-nested or
   split [And] spine; a split recurses, so shapes mix. *)
let rec gen_spine = function
  | [] -> invalid_arg "gen_spine"
  | [ c ] -> QCheck.Gen.return c
  | c :: rest as cs ->
      let rec right = function
        | [ c ] -> c
        | c :: rest -> Expr.And (c, right rest)
        | [] -> assert false
      in
      QCheck.Gen.(
        frequency
          [
            (1, return (List.fold_left Expr.( &&& ) c rest));
            (1, return (right cs));
            ( 2,
              int_range 1 (List.length cs - 1) >>= fun k ->
              map2
                (fun a b -> Expr.And (a, b))
                (gen_spine (List.filteri (fun i _ -> i < k) cs))
                (gen_spine (List.filteri (fun i _ -> i >= k) cs)) );
          ])

(* 2..8 conjuncts drawn from [gen_linear], [gen_expr_sized] and
   per-variable comparisons, in random order; two of them read one
   common variable. *)
let gen_conjunction =
  QCheck.Gen.(
    int_range 2 8 >>= fun k ->
    oneofl conj_pool >>= fun (name, loc) ->
    let shared =
      oneof
        [
          gen_var_cmp (name, loc);
          map3
            (fun op side c ->
              Expr.Cmp (op, Expr.(var ~name ~loc +? side), Expr.int c))
            (oneofl cmp_ops) (gen_lin_side 2) (int_range (-5) 5);
        ]
    in
    let free =
      frequency
        [
          (2, gen_linear);
          (2, int_range 0 6 >>= gen_expr_sized);
          (3, oneofl conj_pool >>= gen_var_cmp);
        ]
    in
    map3
      (fun a b rest -> a :: b :: rest)
      (gen_var_cmp (name, loc)) shared
      (list_repeat (k - 2) free)
    >>= shuffle_l >>= gen_spine)

type step =
  | Set of Expr.var * Value.t
  | Set_int of Expr.var * int
  | Clear of Expr.var

let gen_step pool =
  QCheck.Gen.(
    map (fun (name, loc) -> { Expr.name; loc }) (oneofl pool) >>= fun v ->
    frequency
      [
        (4, map (fun x -> Set_int (v, x)) gen_script_int);
        ( 3,
          map
            (fun x -> Set (v, x))
            (oneof
               [
                 map (fun x -> Value.Int x) gen_script_int;
                 map (fun f -> Value.Float (float_of_int f /. 2.0)) (int_range (-8) 8);
                 map (fun b -> Value.Bool b) bool;
                 map (fun s -> Value.String s) (oneofl [ "a"; "z" ]);
               ]) );
        (1, return (Clear v));
      ])

let gen_script pool =
  QCheck.Gen.(
    map2 ( @ )
      (* Half the scripts start with every variable a small int, so
         that most of their steps reach the running sum or the count. *)
      (oneof
         [
           return [];
           map
             (List.map2
                (fun (name, loc) x -> Set_int ({ Expr.name; loc }, x))
                pool)
             (list_repeat (List.length pool) (int_range (-5) 5));
         ])
      (list_size (int_range 0 24) (gen_step pool)))

let pp_var (v : Expr.var) = Printf.sprintf "%s_%d" v.name v.loc

let pp_step = function
  | Set (v, x) -> Printf.sprintf "set %s=%s" (pp_var v) (Value.to_string x)
  | Set_int (v, x) -> Printf.sprintf "set_int %s=%d" (pp_var v) x
  | Clear v -> "clear " ^ pp_var v

let arb_update_script =
  QCheck.make
    ~print:(fun (e, steps) ->
      Printf.sprintf "%s after [%s]" (Expr.to_string e)
        (String.concat "; " (List.map pp_step steps)))
    QCheck.Gen.(
      oneof
        [
          pair gen_linear (gen_script lin_pool);
          pair gen_conjunction (gen_script conj_pool);
        ])

(* Apply [step] to the compiled env and to the interpreter's bindings. *)
let apply_step prog cenv bindings step =
  let v = match step with Set (v, _) | Set_int (v, _) | Clear v -> v in
  let s = Compiled.slot prog v in
  match step with
  | Set (_, value) ->
      Hashtbl.replace bindings v value;
      if s >= 0 then Compiled.set cenv s value
  | Set_int (_, x) ->
      Hashtbl.replace bindings v (Value.Int x);
      if s >= 0 then Compiled.set_int cenv s x
  | Clear _ ->
      Hashtbl.remove bindings v;
      if s >= 0 then Compiled.clear cenv s

let script_matches_interp (e, steps) =
  let prog = Compiled.compile e in
  let cenv = Compiled.create_env prog in
  let bindings = Hashtbl.create 8 in
  let check label =
    let oracle = outcome (fun () -> Expr.eval ~env:(Hashtbl.find_opt bindings) e) in
    let compiled = outcome (fun () -> Compiled.eval prog cenv) in
    if not (same_outcome oracle compiled) then
      QCheck.Test.fail_reportf "after %s: interp %s <> compiled %s" label
        (pp_outcome oracle) (pp_outcome compiled)
  in
  check "start";
  List.iter
    (fun step ->
      apply_step prog cenv bindings step;
      check (pp_step step))
    steps;
  true

(* x = 2^53, y = 1: (x + y) - x > 0 holds over the integers, but
   2^53 + 1 rounds to 2^53 in floats, so the interpreter says false;
   |x| > 2^40 sends the compiled program to the bytecode. *)
let test_running_sum_big_leaf () =
  let x = Expr.var ~name:"x" ~loc:0 and y = Expr.var ~name:"y" ~loc:1 in
  let e = Expr.(x +? y -? x >? int 0) in
  let prog = Compiled.compile e in
  let cenv = Compiled.create_env prog in
  Compiled.set_int cenv (Compiled.slot prog { Expr.name = "x"; loc = 0 }) (1 lsl 53);
  Compiled.set_int cenv (Compiled.slot prog { Expr.name = "y"; loc = 1 }) 1;
  let env = function
    | { Expr.name = "x"; _ } -> Some (Value.Int (1 lsl 53))
    | _ -> Some (Value.Int 1)
  in
  Alcotest.(check bool) "interpreter rounds" false (Expr.eval_bool ~env e);
  Alcotest.(check bool) "compiled falls back" false (Compiled.eval_bool prog cenv)

(* No value above 2^40, yet 8192 copies of x = 2^40 reach 2^53, where
   adding y = 1 rounds away; subtracting the copies again leaves 0 in
   floats and 1 over the integers.  x's coefficient is 0, so only the
   leaf-count budget (16384 * 2^40 + 1 > 2^53) can send this to the
   bytecode. *)
let test_running_sum_over_budget () =
  let x = Expr.var ~name:"x" ~loc:0 and y = Expr.var ~name:"y" ~loc:1 in
  let copies = 8192 in
  let up = List.fold_left Expr.( +? ) x (List.init (copies - 1) (fun _ -> x)) in
  let down = List.fold_left Expr.( -? ) Expr.(up +? y) (List.init copies (fun _ -> x)) in
  let e = Expr.(down >? int 0) in
  let prog = Compiled.compile e in
  let cenv = Compiled.create_env prog in
  Compiled.set_int cenv (Compiled.slot prog { Expr.name = "x"; loc = 0 }) (1 lsl 40);
  Compiled.set_int cenv (Compiled.slot prog { Expr.name = "y"; loc = 1 }) 1;
  let env = function
    | { Expr.name = "x"; _ } -> Some (Value.Int (1 lsl 40))
    | _ -> Some (Value.Int 1)
  in
  Alcotest.(check bool) "interpreter rounds" false (Expr.eval_bool ~env e);
  Alcotest.(check bool) "compiled falls back" false (Compiled.eval_bool prog cenv);
  (* 4095 copies on each side keep the budget (8190 * 2^40 + 1) within
     2^53: the sum answers, and agrees. *)
  let half = (copies / 2) - 1 in
  let up = List.fold_left Expr.( +? ) x (List.init (half - 1) (fun _ -> x)) in
  let down =
    List.fold_left Expr.( -? ) Expr.(up +? y) (List.init half (fun _ -> x))
  in
  let e = Expr.(down >? int 0) in
  let prog = Compiled.compile e in
  let cenv = Compiled.create_env prog in
  Compiled.set_int cenv (Compiled.slot prog { Expr.name = "x"; loc = 0 }) (1 lsl 40);
  Compiled.set_int cenv (Compiled.slot prog { Expr.name = "y"; loc = 1 }) 1;
  Alcotest.(check bool) "interpreter exact" true (Expr.eval_bool ~env e);
  Alcotest.(check bool) "compiled exact" true (Compiled.eval_bool prog cenv)

(* {2 Conjunct count: fixed cases}

   One env of [e]'s program goes through each check's steps in turn;
   after them, both evaluators, by [eval] and by [eval_bool], must give
   [want].  The first check runs before any step. *)

let expect_count e checks =
  let prog = Compiled.compile e in
  let cenv = Compiled.create_env prog in
  let bindings = Hashtbl.create 4 in
  List.iter
    (fun (steps, want) ->
      List.iter (apply_step prog cenv bindings) steps;
      let label = String.concat "; " (List.map pp_step steps) in
      let env = Hashtbl.find_opt bindings in
      let as_bool f = outcome (fun () -> Value.Bool (f ())) in
      List.iter
        (fun (evaluator, got) ->
          if not (same_outcome want got) then
            Alcotest.failf "%s after [%s]: %s gives %s, want %s"
              (Expr.to_string e) label evaluator (pp_outcome got)
              (pp_outcome want))
        [
          ("Expr.eval", outcome (fun () -> Expr.eval ~env e));
          ("Expr.eval_bool", as_bool (fun () -> Expr.eval_bool ~env e));
          ("Compiled.eval", outcome (fun () -> Compiled.eval prog cenv));
          ( "Compiled.eval_bool",
            as_bool (fun () -> Compiled.eval_bool prog cenv) );
        ])
    checks

let vx = { Expr.name = "x"; loc = 0 }
let vy = { Expr.name = "y"; loc = 1 }
let x0 = Expr.Var vx
let y1 = Expr.Var vy

let test_count_false_before_unbound () =
  expect_count
    Expr.((x0 >? int 5) &&& (y1 >? int 0))
    [
      ([ Set_int (vx, 0) ], Value (Value.Bool false));
      ([ Set_int (vx, 6) ], Unbound vy);
      ([ Set_int (vy, 1) ], Value (Value.Bool true));
    ]

let test_count_unbound_before_false () =
  expect_count
    Expr.((y1 >? int 0) &&& (x0 >? int 5))
    [
      ([ Set_int (vx, 0) ], Unbound vy);
      ([ Set_int (vy, 1) ], Value (Value.Bool false));
      ([ Clear vy ], Unbound vy);
    ]

let test_count_non_bool () =
  let not_bool = Type_err "expected a boolean value" in
  expect_count
    Expr.((x0 >? int 0) &&& (x0 +? int 1))
    [
      ([ Set_int (vx, 1) ], not_bool);
      ([ Set_int (vx, 0) ], Value (Value.Bool false));
      ([ Set (vx, Value.Bool true) ], Type_err "incomparable values");
    ];
  expect_count Expr.(x0 &&& (y1 >? int 0)) [ ([ Set_int (vx, 3) ], not_bool) ]

let test_count_constant () =
  expect_count
    Expr.(bool true &&& (x0 >? int 0) &&& bool false)
    [
      ([], Unbound vx);
      ([ Set_int (vx, 1) ], Value (Value.Bool false));
      ([ Set_int (vx, 0) ], Value (Value.Bool false));
    ];
  expect_count
    Expr.(int 3 &&& (x0 >? int 0))
    [ ([], Type_err "expected a boolean value");
      ([ Set_int (vx, 1) ], Type_err "expected a boolean value") ]

let test_count_before_set () =
  expect_count
    Expr.((x0 >? int 0) &&& ((y1 >? int 0) &&& (x0 <? int 9)))
    [
      ([], Unbound vx);
      ([ Set_int (vx, 1); Set_int (vy, 1) ], Value (Value.Bool true));
      ([ Set_int (vx, 9) ], Value (Value.Bool false));
    ]

(* {2 Conjunct split round-trip}

   [Expr.conjuncts] splits a conjunctive predicate into its localized
   conjuncts; the split must keep every conjunct, each with its sole
   location. *)

let gen_local_conjunct loc =
  QCheck.Gen.(
    let atom =
      map3
        (fun name op k -> Expr.Cmp (op, Expr.var ~name ~loc, Expr.int k))
        (oneofl [ "x"; "y" ])
        (oneofl [ Expr.Eq; Ne; Lt; Le; Gt; Ge ])
        (int_range (-3) 3)
    in
    frequency
      [ (3, atom); (1, map2 (fun a b -> Expr.Or (a, b)) atom atom);
        (1, map (fun a -> Expr.Not a) atom) ])

let gen_conjunctive =
  QCheck.Gen.(
    int_range 1 6 >>= fun k ->
    list_repeat k (int_range 0 3 >>= gen_local_conjunct) >>= fun parts ->
    return
      (match parts with
      | [] -> assert false
      | e :: rest -> (List.fold_left Expr.( &&& ) e rest, k)))

let arb_conjunctive =
  QCheck.make ~print:(fun (e, _) -> Expr.to_string e) gen_conjunctive

let conjunct_partition_round_trip (e, k) =
  match Expr.conjuncts e with
  | None -> QCheck.Test.fail_reportf "expected conjunctive: %s" (Expr.to_string e)
  | Some parts ->
      if List.length parts <> k then
        QCheck.Test.fail_reportf "expected %d conjuncts, got %d" k
          (List.length parts);
      (* Multiset of localized conjuncts survives the split. *)
      let key (loc, c) = Printf.sprintf "%d:%s" loc (Expr.to_string c) in
      let sorted l = List.sort Stdlib.compare (List.map key l) in
      let rec flat = function
        | Expr.And (a, b) -> flat a @ flat b
        | c -> [ c ]
      in
      let original =
        List.map (fun c -> (Option.get (Expr.sole_location c), c)) (flat e)
      in
      if sorted parts <> sorted original then
        QCheck.Test.fail_reportf "conjunct multiset changed";
      true

let test_compiled_slots () =
  let e =
    (var ~name:"x" ~loc:0 >? int 1)
    &&& (var ~name:"y" ~loc:1 +? var ~name:"x" ~loc:0 >? int 2)
  in
  let prog = Compiled.compile e in
  Alcotest.(check int) "nvars" 2 (Compiled.nvars prog);
  Alcotest.(check int) "slot x0" 0 (Compiled.slot prog { Expr.name = "x"; loc = 0 });
  Alcotest.(check int) "slot y1" 1 (Compiled.slot prog { Expr.name = "y"; loc = 1 });
  Alcotest.(check int) "absent" (-1) (Compiled.slot prog { Expr.name = "z"; loc = 0 });
  let cenv = Compiled.create_env prog in
  Compiled.set_int cenv 0 3;
  Alcotest.(check bool) "partial env unbound" true
    (try ignore (Compiled.eval_bool prog cenv); false
     with Expr.Unbound_variable v -> v.name = "y" && v.loc = 1);
  Alcotest.(check bool) "holds: unbound is false" false
    (Compiled.holds prog cenv);
  Compiled.set_int cenv 1 0;
  Alcotest.(check bool) "bound true" true (Compiled.eval_bool prog cenv);
  Alcotest.(check bool) "holds: bound" true (Compiled.holds prog cenv);
  Alcotest.(check bool) "get" true
    (Compiled.get cenv 0 = Some (Value.Int 3));
  Compiled.clear cenv 1;
  Alcotest.(check bool) "cleared unbound again" true
    (try ignore (Compiled.eval_bool prog cenv); false
     with Expr.Unbound_variable _ -> true)

let test_compiled_short_circuit () =
  (* False left conjunct must mask an unbound right one, as in eval. *)
  let e =
    (int 1 >? int 2) &&& (var ~name:"x" ~loc:0 >? int 0)
  in
  let prog = Compiled.compile e in
  Alcotest.(check bool) "masked unbound" false
    (Compiled.eval_bool prog (Compiled.create_env prog));
  let e = (int 2 >? int 1) ||| (var ~name:"x" ~loc:0 >? int 0) in
  let prog = Compiled.compile e in
  Alcotest.(check bool) "or masks too" true
    (Compiled.eval_bool prog (Compiled.create_env prog))

let test_modality () =
  Alcotest.(check string) "inst" "instantaneous" (Modality.to_string Modality.Instantaneous);
  Alcotest.(check bool) "inst single axis" true
    (Modality.axis Modality.Instantaneous = Modality.Single_axis);
  Alcotest.(check bool) "possibly partial order" true
    (Modality.axis Modality.Possibly = Modality.Partial_order);
  Alcotest.(check bool) "definitely partial order" true
    (Modality.axis Modality.Definitely = Modality.Partial_order)

let test_spec () =
  let p = var ~name:"x" ~loc:0 >? int 0 in
  let s = Spec.make ~name:"test" ~predicate:p ~modality:Modality.Definitely in
  Alcotest.(check string) "name" "test" (Spec.name s);
  Alcotest.(check bool) "class" true (Spec.predicate_class s = `Conjunctive);
  let rel =
    Spec.make ~name:"r"
      ~predicate:(var ~name:"x" ~loc:0 +? var ~name:"y" ~loc:1 >? int 0)
      ~modality:Modality.Instantaneous
  in
  Alcotest.(check bool) "relational class" true
    (Spec.predicate_class rel = `Relational)

let () =
  Alcotest.run "psn_predicates"
    [
      ( "eval",
        [
          Alcotest.test_case "arith" `Quick test_eval_arith;
          Alcotest.test_case "cmp" `Quick test_eval_cmp;
          Alcotest.test_case "bool ops" `Quick test_eval_bool_ops;
          Alcotest.test_case "unbound" `Quick test_eval_unbound;
          Alcotest.test_case "type error" `Quick test_eval_type_error;
          Alcotest.test_case "sum" `Quick test_sum;
        ] );
      ( "structure",
        [
          Alcotest.test_case "vars dedup" `Quick test_vars_dedup;
          Alcotest.test_case "conjunctive vs relational" `Quick
            test_conjunctive_classification;
          Alcotest.test_case "nested conjunction" `Quick test_conjunctive_nested;
          Alcotest.test_case "compound local conjunct" `Quick
            test_conjunct_multi_var_same_loc;
          Alcotest.test_case "cross-loc disjunction" `Quick
            test_disjunction_not_conjunctive_across_locs;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "slots" `Quick test_compiled_slots;
          Alcotest.test_case "short circuit" `Quick test_compiled_short_circuit;
          qtest "compiled = interp (value and exception)" arb_expr_env
            compiled_matches_interp;
          qtest ~count:500 "conjunct partition round-trip" arb_conjunctive
            conjunct_partition_round_trip;
          qtest ~count:4000 "running sum = interp over update scripts"
            arb_update_script script_matches_interp;
          Alcotest.test_case "running sum: leaf above 2^40" `Quick
            test_running_sum_big_leaf;
          Alcotest.test_case "running sum: budget past 2^53" `Quick
            test_running_sum_over_budget;
          Alcotest.test_case "conjunct count: false before unbound" `Quick
            test_count_false_before_unbound;
          Alcotest.test_case "conjunct count: unbound before false" `Quick
            test_count_unbound_before_false;
          Alcotest.test_case "conjunct count: non-bool conjunct" `Quick
            test_count_non_bool;
          Alcotest.test_case "conjunct count: constant conjunct" `Quick
            test_count_constant;
          Alcotest.test_case "conjunct count: eval before any set" `Quick
            test_count_before_set;
        ] );
      ( "spec",
        [
          Alcotest.test_case "modality" `Quick test_modality;
          Alcotest.test_case "spec" `Quick test_spec;
        ] );
    ]
