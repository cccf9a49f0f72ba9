(** Flat-bytecode predicate evaluator: compile an {!Expr.t} once, then
    evaluate it allocation-free against an int-indexed slot environment.

    The compiled program replays {!Expr.eval}'s exact operand order and
    short-circuit structure, so for any environment both evaluators
    return the same value or raise the same exception ({!
    Expr.Unbound_variable} with the same variable, or
    [Psn_world.Value.Type_error] with the same message) — the
    interpreter remains the differential oracle.

    A linear comparison — a [Cmp] whose sides are [Add]/[Sub] trees over
    variables and [Int] constants, such as the hall's Σ(x_i − y_i) > C —
    is answered in O(1) from a running integer sum the env keeps up to
    date on every [set], [set_int] and [clear].  The sum answers only
    when every slot holds an [Int] of magnitude at most 2^40 and the
    bytecode's float evaluation is provably exact (every partial sum an
    integer of magnitude at most 2^53), so the answer is the bytecode's
    bit for bit; otherwise the bytecode runs.

    A conjunction — a program whose root is an [And], such as
    ∧ᵢ (loadᵢ <= limit) — keeps a running conjunct count.  Its
    conjuncts are the maximal non-[And] subtrees of the root's [And]
    spine; [set], [set_int] and [clear] mark the conjuncts that read the
    slot dirty, and evaluation re-runs only those, each on its own.
    With every conjunct true or false the answer is "none is false";
    otherwise the first conjunct that is not true decides, raising
    exactly what the full bytecode would raise.

    Scratch evaluation stacks live in the compiled program and are
    reused across calls: evaluate from one domain at a time per [t]
    (callers that evaluate concurrently each compile their own copy). *)

type t

val compile : Expr.t -> t

val source : t -> Expr.t

val nvars : t -> int
(** Number of distinct located variables; slots are [0 .. nvars - 1] in
    {!Expr.vars} first-use order. *)

val slot : t -> Expr.var -> int
(** Variable to slot index, [-1] when the program never reads it. *)

(** {2 Environments} *)

type env
(** A slot-indexed binding array; every slot starts unbound.  Create one
    per evaluation site from the program that will read it. *)

val create_env : t -> env
val set : env -> int -> Psn_world.Value.t -> unit
val set_int : env -> int -> int -> unit
(** [set]/[set_int] bind a slot in O(1), running sum included (plus one
    step per conjunct that reads the slot, for a conjunction);
    [set_int] is the unboxed fast path for the detectors' int-valued
    updates. *)

val clear : env -> int -> unit
val get : env -> int -> Psn_world.Value.t option

(** {2 Evaluation} *)

val eval : t -> env -> Psn_world.Value.t
(** Raises {!Expr.Unbound_variable} on a read of an unbound slot and
    [Value.Type_error] on ill-typed programs, matching {!Expr.eval}
    exception-for-exception.  O(1) for a linear comparison under the
    exactness rule; for a conjunction, one run of each conjunct marked
    dirty since the last evaluation, then O(1) when every conjunct is
    true or false (else a scan to the first one that is not true); one
    bytecode run otherwise. *)

val eval_bool : t -> env -> bool

val holds : t -> env -> bool
(** {!eval_bool} under {!Expr.holds}'s rule: false on a read of an
    unbound slot. *)
