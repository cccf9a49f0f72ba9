(* Marrying the two design spaces (paper §3): a specification (predicate +
   modality) and an implementation (clock + delay + loss) yield a
   detector; a scenario populates the world; the runner executes and
   scores.

   The dispatch below *is* the paper's compatibility matrix.  Every clock
   realizes Instantaneous through its row of [Linearizer.for_clock]; only
   the vector clocks realize the partial-order modalities, through the
   interval queues of [Interval_detector]:

                         Instantaneous       Possibly/Definitely
     perfect physical    physical (ε = 0)    —
     synced physical     physical (ε)        —
     logical scalar      lamport unicast     —
     logical vector      causal-vec unicast  Possibly/Definitely (conjunctive)
     strobe scalar       strobe scalar       —
     strobe vector       strobe vector       Possibly/Definitely (conjunctive)
     physical vector     raw hw clocks       —
     hybrid logical      hlc                 —

   Unsupported pairings raise, mirroring the paper's argument about which
   clocks can realize which modalities. *)

module Engine = Psn_sim.Engine
module Clock_kind = Psn_clocks.Clock_kind
module Spec = Psn_predicates.Spec
module Modality = Psn_predicates.Modality
module D = Psn_detection

exception Unsupported of string

let unsupported clock modality =
  raise
    (Unsupported
       (Fmt.str "no detector for clock %a under modality %a" Clock_kind.pp clock
          Modality.pp modality))

let detector_for ?init (config : Config.t) engine ~spec =
  let n = config.n in
  let delay = config.delay in
  let predicate = Spec.predicate spec in
  let loss = config.loss in
  let once = config.once in
  let topology = config.topology in
  let require_complete_overlay what =
    if topology <> None then
      raise
        (Unsupported (what ^ " requires the default (complete) overlay"))
  in
  match (config.clock, Spec.modality spec) with
  | clock, Modality.Instantaneous ->
      (match clock with
      | Clock_kind.Logical_scalar ->
          require_complete_overlay "the Lamport unicast baseline"
      | Clock_kind.Logical_vector ->
          require_complete_overlay "the causal-vector unicast baseline"
      | _ -> ());
      D.Linearizer.for_clock ~loss ?topology ?init ~once engine ~clock ~n
        ~delay ~hold:(Config.effective_hold config) ~predicate
  | ( (Clock_kind.Strobe_vector | Clock_kind.Logical_vector),
      ((Modality.Possibly | Modality.Definitely) as modality) ) ->
      require_complete_overlay "the interval-queue detectors";
      let mode =
        if modality = Modality.Possibly then D.Interval_detector.Possibly
        else D.Interval_detector.Definitely
      in
      D.Interval_detector.create ~loss ?init ~once engine ~mode ~n ~delay
        ~horizon:config.horizon ~predicate
  | clock, modality -> unsupported clock modality

let score (config : Config.t) ~spec ?init ~policy detector =
  let updates = D.Detector.updates detector in
  let truth =
    D.Ground_truth.intervals ?init ~updates ~predicate:(Spec.predicate spec)
      ~horizon:config.horizon ()
  in
  let occurrences = D.Detector.occurrences detector in
  let summary =
    D.Metrics.score ~tolerance:config.tolerance ~policy ~truth
      ~detections:occurrences ()
  in
  (truth, occurrences, summary, List.length updates)

(* Run one scenario under one configuration.  [setup] wires the world to
   the detector's [emit] (and may also register actuators, covert
   channels, sync protocols...). *)
let run ?init ?(policy = D.Metrics.As_positive) (config : Config.t) ~spec
    ~setup () =
  let engine = Engine.create ~seed:config.seed () in
  let detector = detector_for ?init config engine ~spec in
  setup engine detector;
  Engine.run ~until:config.horizon engine;
  let truth, occurrences, summary, updates =
    score config ~spec ?init ~policy detector
  in
  {
    Report.summary;
    truth;
    occurrences;
    updates;
    messages = D.Detector.messages_sent detector;
    words = D.Detector.words_sent detector;
    dropped = D.Detector.messages_dropped detector;
    sim_events = Engine.events_processed engine;
    horizon = config.horizon;
    metrics = Psn_obs.Metrics.snapshot (Engine.metrics engine);
    sharding = None;
  }
