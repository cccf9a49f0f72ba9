(* Flat-bytecode predicate evaluator.

   [Expr.eval] walks the tree with a closure-based environment: one
   [Hashtbl] probe per variable, a [Value] box per intermediate result,
   and a closure invocation per node.  On the checker's hot path that
   tree walk runs once per applied update, so this module compiles an
   expression once into a postfix instruction array over int-indexed
   variable slots and evaluates it with a pc/sp loop over parallel
   unboxed stacks — no lookup, no allocation, no closures.

   The interpreter stays the differential oracle: the compiled program
   replays its exact operand order and short-circuit structure, so both
   evaluators return the same value or raise the same exception
   constructor with the same message (see the qcheck suite).

   Instruction word: low 4 bits opcode, rest argument.

     0 const k    push constant-pool entry k
     1 load s     push slot s (raises [Unbound_variable] when unset)
     2 not        boolean negate in place
     3 jfalse pc  if top is false, leave it and jump; else pop
     4 jtrue pc   if top is true, leave it and jump; else pop
     5 tobool     assert top is a bool ([Value.to_bool] of the result)
     6..11 cmp    Eq Ne Lt Le Gt Ge over [Value.compare_num] semantics
     12..14 arith Add Sub Mul over [Value.to_float] semantics

   [And (a, b)] compiles to [a; jfalse L; b; tobool; L:] — the taken
   branch leaves [false] as the result without touching [b], exactly the
   interpreter's short-circuit.  [Or] is the dual with [jtrue].

   Values live on four parallel stacks indexed by sp: a tag lane
   (0 int, 1 float, 2 bool, 3 string), an exact-int lane (tag 0 only), a
   float lane (ints widened, bools as 0.0/1.0 — [compare_num] compares
   numerics as floats anyway), and a string lane.  A lane is only read
   under the tag that wrote it, so stale entries are harmless.

   Linear comparisons skip the bytecode.  When the root is a [Cmp]
   whose two sides are [Add]/[Sub] trees over [Var] leaves and [Int]
   constants, [compile] also records each slot's signed coefficient in
   L - R and its number of leaves, the constant k = Σ±c and Σ|c|.  The
   env then keeps, in O(1) per [set]/[set_int]/[clear], the running
   sum Σ coef·x, a budget Σ leaves·|x|, and [bad], the count of slots
   that are unbound, non-[Int], or have |x| > 2^40.  When [bad] = 0
   and budget + Σ|c| <= 2^53, every leaf and every partial sum of the
   bytecode's float evaluation is an integer of magnitude <= 2^53, so
   each is exact and [Float.compare L R] is [compare (sum + k) 0]: the
   answer is read off the sum.  Otherwise the bytecode runs, so the
   exceptions and the float rounding are the interpreter's.  The 2^40
   cap keeps the budget inside [max_int], which [compile] checks
   against the total leaf count; a constant, or Σ|c|, past 2^53 leaves
   the program without a linear form.

   Conjunctions skip most of the bytecode.  When the root is an [And],
   its conjuncts are the maximal non-[And] subtrees of the root's [And]
   spine, left to right, and [compile] records each one's code range
   and, per slot, the conjuncts that load it.  The env keeps each
   conjunct's last outcome (true, false, or other: it raised or
   returned a non-bool), the counts of false and other conjuncts, and a
   dirty set that [set]/[set_int]/[clear] add the slot's conjuncts to.
   [eval] first re-runs each dirty conjunct's range on its own.  With
   no other conjunct, the answer is "no conjunct is false"; otherwise
   the first conjunct that is not true decides: false answers false,
   other re-runs its range so it raises what the full bytecode would.
   This is exact because the bytecode, like [Expr.eval], runs the
   conjuncts left to right and stops at the first that is not true, and
   each conjunct's code starts at stack depth 0 and reads only the env,
   so its outcome on its own is its outcome inside the full run.

   The scratch stacks live in [t] and are reused across evaluations:
   one evaluation at a time per compiled program (per-domain users each
   compile their own copy). *)

module Value = Psn_world.Value

type t = {
  source : Expr.t;
  code : int array;
  c_tag : int array;
  c_int : int array;
  c_num : float array;
  c_str : string array;
  vars : Expr.var array; (* slot -> variable, first-use order *)
  slots : (Expr.var, int) Hashtbl.t;
  s_tag : int array;
  s_int : int array;
  s_num : float array;
  s_str : string array;
  lin_op : int; (* the root's cmp opcode when linear, else -1 *)
  lin_k : int; (* Σ±c over L - R *)
  lin_room : int; (* 2^53 - Σ|c|: the budget's ceiling *)
  coef : int array; (* slot -> coefficient in L - R; zeros unless linear *)
  leaves : int array; (* slot -> leaf count; zeros unless linear *)
  conj_lo : int array; (* conjunct -> first pc; empty unless an [And] root *)
  conj_hi : int array; (* conjunct -> pc past its last instruction *)
  conj_of : int array array; (* slot -> conjuncts loading it, each once;
                                empty unless an [And] root *)
}

type env = {
  e_tag : int array; (* -1 = unbound *)
  e_int : int array;
  e_num : float array;
  e_str : string array;
  e_coef : int array; (* the program's [coef] and [leaves] *)
  e_leaves : int array;
  mutable e_sum : int; (* Σ coef·x over the good slots *)
  mutable e_budget : int; (* Σ leaves·|x| over the good slots *)
  mutable e_bad : int; (* slots unbound, non-Int, or |x| > [int_cap] *)
  e_conj_of : int array array; (* the program's [conj_of] *)
  e_out : int array; (* conjunct -> [o_true]/[o_false]/[o_other], + [dirty] *)
  e_dirty : int array; (* stack of the dirty conjuncts *)
  mutable e_ndirty : int;
  mutable e_false : int; (* conjuncts whose last outcome is false *)
  mutable e_other : int; (* ... raised or returned a non-bool *)
}

let int_cap = 1 lsl 40
let exact_cap = 1 lsl 53

(* Conjunct outcomes, and the flag a dirty conjunct carries on top. *)
let o_true = 0
let o_false = 1
let o_other = 2
let dirty = 4

let cmp_index = function
  | Expr.Eq -> 0 | Expr.Ne -> 1 | Expr.Lt -> 2
  | Expr.Le -> 3 | Expr.Gt -> 4 | Expr.Ge -> 5

let arith_index = function Expr.Add -> 0 | Expr.Sub -> 1 | Expr.Mul -> 2

let compile source =
  let slot_tbl = Hashtbl.create 8 in
  let vars_rev = ref [] and nvars = ref 0 in
  let slot_of v =
    match Hashtbl.find_opt slot_tbl v with
    | Some s -> s
    | None ->
        let s = !nvars in
        incr nvars;
        Hashtbl.add slot_tbl v s;
        vars_rev := v :: !vars_rev;
        s
  in
  let consts_rev = ref [] and nconsts = ref 0 in
  let const_of v =
    let k = !nconsts in
    incr nconsts;
    consts_rev := v :: !consts_rev;
    k
  in
  let code = ref (Array.make 16 0) and len = ref 0 in
  let emit w =
    if !len = Array.length !code then begin
      let nb = Array.make (2 * !len) 0 in
      Array.blit !code 0 nb 0 !len;
      code := nb
    end;
    !code.(!len) <- w;
    incr len
  in
  let cur = ref 0 and depth = ref 0 in
  let push () =
    incr cur;
    if !cur > !depth then depth := !cur
  in
  (* [spine]: on the root's [And] spine, where each non-[And] node is a
     conjunct whose code range is recorded. *)
  let conj_rev = ref [] in
  let rec go spine = function
    | Expr.And (a, b) ->
        go spine a;
        let jp = !len in
        emit 3;
        decr cur; (* fall-through pops the guard; the taken branch keeps
                     it as the result, which never deepens the stack *)
        go spine b;
        emit 5;
        !code.(jp) <- 3 lor (!len lsl 4)
    | e when spine ->
        let lo = !len in
        go false e;
        conj_rev := (lo, !len) :: !conj_rev
    | Expr.Const v ->
        emit (0 lor (const_of v lsl 4));
        push ()
    | Expr.Var v ->
        emit (1 lor (slot_of v lsl 4));
        push ()
    | Expr.Not e ->
        go false e;
        emit 2
    | Expr.Or (a, b) ->
        go false a;
        let jp = !len in
        emit 4;
        decr cur;
        go false b;
        emit 5;
        !code.(jp) <- 4 lor (!len lsl 4)
    | Expr.Cmp (op, a, b) ->
        go false a;
        go false b;
        emit (6 + cmp_index op);
        decr cur
    | Expr.Arith (op, a, b) ->
        go false a;
        go false b;
        emit (12 + arith_index op);
        decr cur
  in
  go (match source with Expr.And _ -> true | _ -> false) source;
  let nslots = max 1 !nvars in
  let coef = Array.make nslots 0 and leaves = Array.make nslots 0 in
  (* The linear form: walk L with sign +1 and R with sign -1, raising
     [Exit] at the first node outside it. *)
  let k = ref 0 and abs_c = ref 0 and nleaves = ref 0 in
  let rec term sign = function
    | Expr.Var v ->
        let s = Hashtbl.find slot_tbl v in
        coef.(s) <- coef.(s) + sign;
        leaves.(s) <- leaves.(s) + 1;
        incr nleaves
    | Expr.Const (Value.Int c) when c >= - exact_cap && c <= exact_cap ->
        k := !k + (sign * c);
        abs_c := !abs_c + abs c;
        if !abs_c > exact_cap then raise Exit
    | Expr.Arith (Expr.Add, a, b) -> term sign a; term sign b
    | Expr.Arith (Expr.Sub, a, b) -> term sign a; term (- sign) b
    | _ -> raise Exit
  in
  let lin_op =
    match source with
    | Expr.Cmp (op, a, b) -> (
        match term 1 a; term (-1) b with
        | () when !nleaves <= max_int / int_cap -> 6 + cmp_index op
        | () | (exception Exit) -> -1)
    | _ -> -1
  in
  if lin_op < 0 then begin
    Array.fill coef 0 nslots 0;
    Array.fill leaves 0 nslots 0
  end;
  let conjs = Array.of_list (List.rev !conj_rev) in
  let code = Array.sub !code 0 !len in
  let conj_of =
    if Array.length conjs = 0 then [||]
    else begin
      let by_slot = Array.make nslots [] in
      Array.iteri
        (fun c (lo, hi) ->
          for pc = lo to hi - 1 do
            if code.(pc) land 15 = 1 then
              let s = code.(pc) asr 4 in
              match by_slot.(s) with
              | c' :: _ when c' = c -> ()
              | cs -> by_slot.(s) <- c :: cs
          done)
        conjs;
      Array.map (fun cs -> Array.of_list (List.rev cs)) by_slot
    end
  in
  let nc = !nconsts in
  let c_tag = Array.make (max 1 nc) 0
  and c_int = Array.make (max 1 nc) 0
  and c_num = Array.make (max 1 nc) 0.0
  and c_str = Array.make (max 1 nc) "" in
  List.iteri
    (fun i v ->
      let k = nc - 1 - i in
      match (v : Value.t) with
      | Value.Int x ->
          c_tag.(k) <- 0; c_int.(k) <- x; c_num.(k) <- float_of_int x
      | Value.Float f -> c_tag.(k) <- 1; c_num.(k) <- f
      | Value.Bool b -> c_tag.(k) <- 2; c_num.(k) <- (if b then 1.0 else 0.0)
      | Value.String s -> c_tag.(k) <- 3; c_str.(k) <- s)
    !consts_rev;
  let d = max 1 !depth in
  {
    source;
    code;
    c_tag;
    c_int;
    c_num;
    c_str;
    vars = Array.of_list (List.rev !vars_rev);
    slots = slot_tbl;
    s_tag = Array.make d 0;
    s_int = Array.make d 0;
    s_num = Array.make d 0.0;
    s_str = Array.make d "";
    lin_op;
    lin_k = !k;
    lin_room = exact_cap - !abs_c;
    coef;
    leaves;
    conj_lo = Array.map fst conjs;
    conj_hi = Array.map snd conjs;
    conj_of;
  }

let source t = t.source
let nvars t = Array.length t.vars
let slot t v = match Hashtbl.find_opt t.slots v with Some s -> s | None -> -1

(* Every conjunct starts dirty, counted as other. *)
let create_env t =
  let n = Array.length t.coef and nc = Array.length t.conj_lo in
  {
    e_tag = Array.make n (-1);
    e_int = Array.make n 0;
    e_num = Array.make n 0.0;
    e_str = Array.make n "";
    e_coef = t.coef;
    e_leaves = t.leaves;
    e_sum = 0;
    e_budget = 0;
    e_bad = Array.length t.vars;
    e_conj_of = t.conj_of;
    e_out = Array.make nc (o_other + dirty);
    e_dirty = Array.init nc Fun.id;
    e_ndirty = nc;
    e_false = 0;
    e_other = nc;
  }

(* A rebound slot dirties the conjuncts that load it.  The guard is
   inlined, so other programs pay one test per bind. *)
let mark env cs =
  for k = 0 to Array.length cs - 1 do
    let c = cs.(k) in
    let o = env.e_out.(c) in
    if o < dirty then begin
      env.e_out.(c) <- o + dirty;
      env.e_dirty.(env.e_ndirty) <- c;
      env.e_ndirty <- env.e_ndirty + 1
    end
  done

let[@inline] touch env slot =
  if Array.length env.e_conj_of > 0 then mark env env.e_conj_of.(slot)

(* The running sums: [retire] takes a slot's binding out before it is
   overwritten, [admit_int] puts an [Int] back in. *)
let retire env slot =
  let x = env.e_int.(slot) in
  if env.e_tag.(slot) = 0 && x >= - int_cap && x <= int_cap then begin
    env.e_sum <- env.e_sum - (env.e_coef.(slot) * x);
    env.e_budget <- env.e_budget - (env.e_leaves.(slot) * abs x)
  end
  else env.e_bad <- env.e_bad - 1

let admit_int env slot x =
  if x >= - int_cap && x <= int_cap then begin
    env.e_sum <- env.e_sum + (env.e_coef.(slot) * x);
    env.e_budget <- env.e_budget + (env.e_leaves.(slot) * abs x)
  end
  else env.e_bad <- env.e_bad + 1

let set_int env slot x =
  retire env slot;
  env.e_int.(slot) <- x;
  env.e_num.(slot) <- float_of_int x;
  env.e_tag.(slot) <- 0;
  touch env slot;
  admit_int env slot x

let set env slot v =
  match (v : Value.t) with
  | Value.Int x -> set_int env slot x
  | Value.Float f ->
      retire env slot;
      env.e_num.(slot) <- f;
      env.e_tag.(slot) <- 1;
      env.e_bad <- env.e_bad + 1;
      touch env slot
  | Value.Bool b ->
      retire env slot;
      env.e_num.(slot) <- (if b then 1.0 else 0.0);
      env.e_tag.(slot) <- 2;
      env.e_bad <- env.e_bad + 1;
      touch env slot
  | Value.String s ->
      retire env slot;
      env.e_str.(slot) <- s;
      env.e_tag.(slot) <- 3;
      env.e_bad <- env.e_bad + 1;
      touch env slot

let clear env slot =
  retire env slot;
  env.e_tag.(slot) <- -1;
  env.e_bad <- env.e_bad + 1;
  touch env slot

let get env slot =
  match env.e_tag.(slot) with
  | -1 -> None
  | 0 -> Some (Value.Int env.e_int.(slot))
  | 1 -> Some (Value.Float env.e_num.(slot))
  | 2 -> Some (Value.Bool (env.e_num.(slot) <> 0.0))
  | _ -> Some (Value.String env.e_str.(slot))

let not_bool () = raise (Value.Type_error "expected a boolean value")
let not_num () = raise (Value.Type_error "expected a numeric value")

let cmp_holds op c =
  match op with
  | 6 -> c = 0
  | 7 -> c <> 0
  | 8 -> c < 0
  | 9 -> c <= 0
  | 10 -> c > 0
  | _ -> c >= 0

(* The exactness rule (see the header): the sum answers for the
   bytecode only when every slot is a small [Int] and the budget leaves
   every partial sum exact. *)
let linear_ok t env =
  t.lin_op >= 0 && env.e_bad = 0 && env.e_budget <= t.lin_room

let linear_holds t env =
  cmp_holds t.lin_op (Int.compare (env.e_sum + t.lin_k) 0)

(* Run the code in [lo, hi) from an empty stack: the whole program, or
   one conjunct, whose jumps never leave its range.  Returns the stack
   index of the result (always 0). *)
let run t env lo hi =
  let code = t.code in
  let s_tag = t.s_tag
  and s_int = t.s_int
  and s_num = t.s_num
  and s_str = t.s_str in
  let pc = ref lo and sp = ref 0 in
  while !pc < hi do
    let w = Array.unsafe_get code !pc in
    incr pc;
    let arg = w asr 4 in
    match w land 15 with
    | 0 ->
        let i = !sp in
        let tg = t.c_tag.(arg) in
        s_tag.(i) <- tg;
        if tg = 0 then s_int.(i) <- t.c_int.(arg);
        if tg = 3 then s_str.(i) <- t.c_str.(arg)
        else s_num.(i) <- t.c_num.(arg);
        sp := i + 1
    | 1 ->
        let tg = env.e_tag.(arg) in
        if tg < 0 then raise (Expr.Unbound_variable t.vars.(arg));
        let i = !sp in
        s_tag.(i) <- tg;
        if tg = 0 then s_int.(i) <- env.e_int.(arg);
        if tg = 3 then s_str.(i) <- env.e_str.(arg)
        else s_num.(i) <- env.e_num.(arg);
        sp := i + 1
    | 2 ->
        let i = !sp - 1 in
        if s_tag.(i) <> 2 then not_bool ();
        s_num.(i) <- (if s_num.(i) = 0.0 then 1.0 else 0.0)
    | 3 ->
        let i = !sp - 1 in
        if s_tag.(i) <> 2 then not_bool ();
        if s_num.(i) = 0.0 then pc := arg else sp := i
    | 4 ->
        let i = !sp - 1 in
        if s_tag.(i) <> 2 then not_bool ();
        if s_num.(i) <> 0.0 then pc := arg else sp := i
    | 5 -> if s_tag.(!sp - 1) <> 2 then not_bool ()
    | (6 | 7 | 8 | 9 | 10 | 11) as op ->
        let j = !sp - 1 in
        let i = j - 1 in
        let ta = s_tag.(i) and tb = s_tag.(j) in
        let c =
          if ta <= 1 && tb <= 1 then Float.compare s_num.(i) s_num.(j)
          else if ta = tb && ta = 2 then Float.compare s_num.(i) s_num.(j)
          else if ta = tb && ta = 3 then String.compare s_str.(i) s_str.(j)
          else raise (Value.Type_error "incomparable values")
        in
        let r = cmp_holds op c in
        s_tag.(i) <- 2;
        s_num.(i) <- (if r then 1.0 else 0.0);
        sp := j
    | op ->
        let j = !sp - 1 in
        let i = j - 1 in
        if s_tag.(i) > 1 then not_num ();
        if s_tag.(j) > 1 then not_num ();
        let fa = s_num.(i) and fb = s_num.(j) in
        s_num.(i) <-
          (match op with 12 -> fa +. fb | 13 -> fa -. fb | _ -> fa *. fb);
        s_tag.(i) <- 1;
        sp := j
  done;
  !sp - 1

let run_all t env = run t env 0 (Array.length t.code)

(* The count (see the header): re-run the dirty conjuncts, then answer. *)
let outcome t env c =
  match run t env t.conj_lo.(c) t.conj_hi.(c) with
  | i ->
      if t.s_tag.(i) <> 2 then o_other
      else if t.s_num.(i) <> 0.0 then o_true
      else o_false
  | exception (Expr.Unbound_variable _ | Value.Type_error _) -> o_other

let tally env o by =
  if o = o_false then env.e_false <- env.e_false + by
  else if o = o_other then env.e_other <- env.e_other + by

let conj_holds t env =
  while env.e_ndirty > 0 do
    let k = env.e_ndirty - 1 in
    env.e_ndirty <- k;
    let c = env.e_dirty.(k) in
    let o = outcome t env c in
    tally env (env.e_out.(c) - dirty) (-1);
    tally env o 1;
    env.e_out.(c) <- o
  done;
  if env.e_other = 0 then env.e_false = 0
  else begin
    let c = ref 0 in
    while env.e_out.(!c) = o_true do
      incr c
    done;
    if env.e_out.(!c) = o_false then false
    else begin
      (* Raises as it did when it was counted, else returned a non-bool,
         which the [jfalse]/[tobool] after it rejects. *)
      ignore (run t env t.conj_lo.(!c) t.conj_hi.(!c));
      not_bool ()
    end
  end

let eval t env =
  if linear_ok t env then Value.Bool (linear_holds t env)
  else if Array.length t.conj_lo > 0 then Value.Bool (conj_holds t env)
  else
    let i = run_all t env in
    match t.s_tag.(i) with
    | 0 -> Value.Int t.s_int.(i)
    | 1 -> Value.Float t.s_num.(i)
    | 2 -> Value.Bool (t.s_num.(i) <> 0.0)
    | _ -> Value.String t.s_str.(i)

let eval_bool t env =
  if linear_ok t env then linear_holds t env
  else if Array.length t.conj_lo > 0 then conj_holds t env
  else begin
    let i = run_all t env in
    if t.s_tag.(i) <> 2 then not_bool ();
    t.s_num.(i) <> 0.0
  end

let holds t env =
  match eval_bool t env with
  | b -> b
  | exception Expr.Unbound_variable _ -> false
