(** The sublattice of consistent global states of a finite execution,
    derived from per-event vector stamps.

    Counting and enumeration run on the packed-cut engine ([Packed]:
    cuts as flat int entries, an allocation-free BFS with a per-level
    dedup map) for every execution size. *)

type verdict = Packed.verdict = Exact of int | At_least of int

type stamps = int array array array
(** [stamps.(i).(k)]: vector stamp of process i's (k+1)-th event. Own
    components must count local events from 1. *)

val lens : stamps -> int array

val is_consistent : stamps -> Cut.t -> bool

val count_consistent : ?cap:int -> stamps -> verdict
(** Size of the consistent sublattice, exploring at most [cap] cuts
    (default 2,000,000). *)

val consistent_cuts : ?cap:int -> stamps -> Cut.t list * verdict
(** Enumerate consistent cuts (breadth-first by level). *)

val total_cuts : stamps -> verdict
(** Size of the unconstrained lattice: Π (events_i + 1) — the paper's
    O(p^n) — [Exact] while it fits in an int, [At_least max_int]
    past it. *)

val total_cuts_of_lens : int array -> verdict
(** Same, from per-process event counts (no stamp materialization). *)

val is_chain : ?cap:int -> stamps -> bool
(** Whether the consistent cuts are totally ordered (Δ = 0 linear order).
    [false] when the cap was hit. *)

val verdict_count : verdict -> int
val pp_verdict : Format.formatter -> verdict -> unit

val to_dot : stamps -> string
(** Graphviz digraph of the consistent sublattice (bottom at the bottom),
    at most 500 cuts.  Intended for small executions. *)

(** {2 Stamp-plane executions}

    The same walks over stamps living in a {!Psn_clocks.Stamp_plane}
    arena: [handles.(i).(k)] names process i's (k+1)-th event stamp.
    The packed engine reads the arena's backing array directly — no
    per-stamp copy on the way into the lattice. *)

val validate_plane :
  Psn_clocks.Stamp_plane.t -> Psn_clocks.Stamp_plane.handle array array -> unit
(** Raises unless every handle is live in the plane, the plane width is
    the process count, and own components count local events from 1. *)

val stamps_of_plane :
  Psn_clocks.Stamp_plane.t -> Psn_clocks.Stamp_plane.handle array array -> stamps
(** Materialize copied stamps (Graphviz rendering, and the bridge to the
    copy-stamp API in tests). *)

val count_consistent_plane :
  ?cap:int -> Psn_clocks.Stamp_plane.t ->
  Psn_clocks.Stamp_plane.handle array array -> verdict
(** [count_consistent] over plane handles. *)

val is_chain_plane :
  ?cap:int -> Psn_clocks.Stamp_plane.t ->
  Psn_clocks.Stamp_plane.handle array array -> bool
(** [is_chain] over plane handles. *)
