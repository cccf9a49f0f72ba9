(** Shared core of the single-time-axis detectors: hold-back buffer,
    stamp-order linearization, transition detection, and the consensus
    race analysis feeding the borderline bin. Instantiated once per
    clock by {!for_clock}, through a stamping discipline.  A ready update
    waits while a held one has a smaller stamp: one least held stamp per
    flush decides, since [compare] is a total preorder.  Applied updates
    race for 2·hold. *)

type 'stamp discipline = {
  name : string;
  stamp_of_emit : src:int -> 'stamp;
  on_receive : dst:int -> 'stamp -> unit;
  compare : 'stamp -> 'stamp -> int;
      (** A total preorder extending the stamp order. *)
  race : 'stamp -> 'stamp -> bool;
  arrival_tie_break : bool;
      (** Break racing stamps by arrival time (logical-clock middleware)
          or trust the stamp order (timestamp-ordering algorithms). *)
  stamp_words : int;
}

type cfg = {
  hold : Psn_sim.Sim_time.t;
  once : bool;  (** Hang after the first detection (baseline). *)
  unicast : bool;
      (** Causality-piggyback baseline: updates go only to the checker;
          no system-wide strobing. *)
}

val create :
  ?loss:Psn_sim.Loss_model.t -> ?topology:Psn_util.Graph.t ->
  ?init:(Psn_predicates.Expr.var * Psn_world.Value.t) list ->
  Psn_sim.Engine.t -> n:int -> delay:Psn_sim.Delay_model.t ->
  predicate:Psn_predicates.Expr.t -> discipline:'stamp discipline ->
  cfg:cfg -> Detector.t
(** Process 0 is the checker; all processes run the discipline's clock.
    With a [topology], strobes travel by multi-hop flooding over it (the
    per-link delay then compounds per hop); unicast baselines require the
    default complete overlay. *)

val for_clock :
  ?loss:Psn_sim.Loss_model.t -> ?topology:Psn_util.Graph.t ->
  ?init:(Psn_predicates.Expr.var * Psn_world.Value.t) list -> ?once:bool ->
  Psn_sim.Engine.t -> clock:Psn_clocks.Clock_kind.t -> n:int ->
  delay:Psn_sim.Delay_model.t -> hold:Psn_sim.Sim_time.t ->
  predicate:Psn_predicates.Expr.t -> Detector.t
(** The paper's implementation space (§3.2) as one table: {!create} over
    [clock]'s discipline.

    {v
    clock              name                   stamp (words)      race
    perfect physical   physical               reading (1)        never (ε = 0)
    synced physical ε  physical               reading ± ε/2 (1)  within 2ε
    logical scalar     lamport-unicast        Lamport (1)        equal
    logical vector     causal-vector-unicast  Mattern/Fidge (n)  concurrent
    strobe scalar      strobe-scalar          SSC (1)            equal
    strobe vector      strobe-vector          SVC (n)            concurrent
    physical vector    physical-raw           raw reading (1)    never
    hybrid logical     hlc                    (l, c) (2)         l within 2·offset
    v}

    Physical clocks hold back [hold + ε] and order by stamp alone; the
    others hold back [hold] and break racing stamps by arrival.  The two
    logical clocks unicast to the checker and need the default complete
    overlay; the others broadcast, flooding over [topology] when one is
    given.  Vector stamps are handles into one stamp plane per
    detector.  Raw hardware clocks are offset up to 500 ms and drift up
    to 100 ppm. *)
