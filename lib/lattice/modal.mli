(** Exact Cooper–Marzullo modalities over the consistent-cut lattice —
    the verification oracle for the online detectors. *)

type verdict = bool option
(** [None] = the exploration cap was hit. *)

val possibly : ?cap:int -> Lattice.stamps -> holds:(Cut.t -> bool) -> verdict
(** Fused into the packed walk: stops at the first φ-cut.  The cut array
    handed to [holds] is a scratch buffer reused between calls — copy it
    if it must be retained. *)

val definitely : ?cap:int -> Lattice.stamps -> holds:(Cut.t -> bool) -> verdict
(** Fused: walks ¬φ-cuts only, stops as soon as ⊤ escapes (or every
    path is blocked).  Same scratch-buffer caveat as [possibly]. *)

val cut_env :
  init:(Psn_predicates.Expr.var * Psn_world.Value.t) list ->
  updates:(string * Psn_world.Value.t) array array -> Cut.t ->
  Psn_predicates.Expr.var -> Psn_world.Value.t option
(** Variable environment at a cut: the latest write to the variable
    among the first [cut.(loc)] of [updates.(loc)] (process loc's
    ordered write sequence), else its [init] binding; [None] for a [loc]
    out of range.  Per-prefix tables are built once per partial
    application to [~init ~updates], so each lookup is O(1) in the
    update count. *)

val holds_of_expr :
  init:(Psn_predicates.Expr.var * Psn_world.Value.t) list ->
  updates:(string * Psn_world.Value.t) array array ->
  Psn_predicates.Expr.t -> Cut.t -> bool
(** Predicate truth at a cut; unbound variables read as false.  Apply it
    to [~init ~updates predicate] once and reuse the result: the
    per-prefix tables are built at that point. *)
