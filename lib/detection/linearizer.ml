(* Shared core of the single-time-axis detectors.

   Every clock in the paper's implementation space recreates a linear
   order of updates at the checker (process 0) and evaluates the
   predicate along it.  The clocks differ only in their *stamping
   discipline*: how an update is timestamped at the sensor, how
   receivers' clocks react to a strobe, how stamps are linearized, and
   when two stamps constitute a race.  The discipline is a first-class
   record and [for_clock] at the bottom is the table of all eight, so
   the comparisons in E1/E2/E8 measure the clocks, not incidental code
   differences.

   Checker algorithm: arrivals are held back for [hold] (the Δ-bound
   hedge of refs [24,25]); ready updates are applied in stamp order.
   When applying an update raises φ, a consensus race analysis runs: for
   every racing update from another process — applied within the race
   window of 2·hold, later in the same flush, or still held back — φ is
   re-evaluated with that update reverted (or force-applied).  If any
   such reordering falsifies φ, the detection goes to the borderline bin
   instead of being asserted (§5).

   Arrivals wait in a FIFO in receive order, so the ready ones are a
   prefix; applied ones wait in another until they leave the race window.
   [order] breaks racing stamps by arrival, which is not transitive for
   concurrent vectors or close HLC stamps, so the E-tables depend on
   [List.sort]'s input order: the ready arrivals newest first, then the
   previous [deferred] in the order the last flush left it. *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Net = Psn_network.Net
module Clock_kind = Psn_clocks.Clock_kind
module Physical_clock = Psn_clocks.Physical_clock
module Stamp_plane = Psn_clocks.Stamp_plane
module Vec = Psn_util.Vec
module Value = Psn_world.Value
module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics

(* Zero-cost-when-disabled trace hook: one option branch per event. *)
let trace engine ~pid ev =
  match Engine.tracer engine with
  | Some s -> Trace.emit s ~time:(Engine.now engine) ~pid ev
  | None -> ()

(* Same contract for spans: nothing happens on the untraced path.  These
   spans open and close within one engine event, so they go to the sync
   lane and nest inside the engine's [engine.exec] span. *)
let span engine ~pid name f =
  match Engine.tracer engine with
  | None -> f ()
  | Some s ->
      Trace.with_span s ~time:(Engine.now engine) ~pid name f
        ~time_end:(fun () -> Engine.now engine)

type 'stamp discipline = {
  name : string;
  stamp_of_emit : src:int -> 'stamp;
      (* tick the sender's clock at a sense event; returns the stamp to
         broadcast (SSC1 / SVC1 / a physical clock read) *)
  on_receive : dst:int -> 'stamp -> unit;
      (* receiver clock reaction (SSC2 / SVC2 / nothing) *)
  compare : 'stamp -> 'stamp -> int;
      (* total order used for linearization; must extend the stamp order *)
  race : 'stamp -> 'stamp -> bool;
      (* do these stamps race (tie / concurrent / within 2ε)? *)
  arrival_tie_break : bool;
      (* logical-clock middleware may break races by arrival time (the
         best physical hint it has); timestamp-ordering algorithms à la
         Mayo–Kearns trust the clock service instead — their defining
         property, and the source of the 2ε race window *)
  stamp_words : int;
}

type 'stamp message = { update : Observation.update; stamp : 'stamp }

type 'stamp buffered = {
  msg : 'stamp message;
  recv_time : Sim_time.t;
}

type 'stamp applied = {
  a_update : Observation.update;
  a_stamp : 'stamp;
  a_prev : Value.t option;
  a_time : Sim_time.t;
}

type cfg = {
  hold : Sim_time.t;        (* hold-back (≈ Δ); the race window is 2·hold *)
  once : bool;              (* baseline mode: hang after first detection *)
  unicast : bool;           (* send updates to the checker only (causality
                               piggyback baseline) instead of the strobe
                               protocols' system-wide broadcast *)
}

(* Transport abstraction: direct single-hop broadcast on a complete
   overlay (the default), or multi-hop flooding over an explicit — and
   possibly churning — topology graph. *)
type 'm transport = {
  tx_broadcast : src:int -> 'm -> unit;
  tx_unicast0 : src:int -> 'm -> unit;
  tx_sent : unit -> int;
  tx_words : unit -> int;
  tx_dropped : unit -> int;
  tx_on_receive : (dst:int -> 'm -> unit) -> unit;
}

let net_transport ?loss ~payload_words engine ~n ~delay =
  let net = Net.create ?loss ~payload_words ~label:"detector" engine ~n ~delay in
  {
    tx_broadcast = (fun ~src msg -> Net.broadcast net ~src msg);
    tx_unicast0 = (fun ~src msg -> if src <> 0 then Net.send net ~src ~dst:0 msg);
    tx_sent = (fun () -> Net.sent net);
    tx_words = (fun () -> Net.words_transmitted net);
    tx_dropped = (fun () -> Net.dropped net);
    tx_on_receive =
      (fun handler ->
        for dst = 0 to n - 1 do
          Net.set_handler net dst (fun ~src:_ msg -> handler ~dst msg)
        done);
  }

let flood_transport ?loss ~payload_words engine ~topology ~delay =
  let flood =
    Psn_network.Flood.create ?loss ~payload_words ~label:"detector" engine
      ~topology ~delay
  in
  let n = Psn_util.Graph.size topology in
  {
    tx_broadcast = (fun ~src msg -> Psn_network.Flood.flood flood ~src msg);
    tx_unicast0 =
      (fun ~src:_ _ ->
        invalid_arg "Linearizer: unicast baselines need a complete overlay");
    tx_sent = (fun () -> Psn_network.Flood.messages_sent flood);
    tx_words = (fun () -> Psn_network.Flood.words_transmitted flood);
    tx_dropped = (fun () -> Psn_network.Flood.dropped flood);
    tx_on_receive =
      (fun handler ->
        for dst = 0 to n - 1 do
          Psn_network.Flood.set_handler flood dst (fun ~origin:_ msg ->
              handler ~dst msg)
        done);
  }

let create ?loss ?topology ?init engine ~n ~delay ~predicate ~discipline ~cfg =
  let payload_words _ = discipline.stamp_words + 2 in
  let transport =
    match topology with
    | None -> net_transport ?loss ~payload_words engine ~n ~delay
    | Some g ->
        if Psn_util.Graph.size g <> n then
          invalid_arg "Linearizer.create: topology size mismatch";
        if cfg.unicast then
          invalid_arg "Linearizer.create: unicast baselines need a complete overlay";
        flood_transport ?loss ~payload_words engine ~topology:g ~delay
  in
  let state = Checker_state.create ?init predicate in
  let m = Engine.metrics engine in
  let c_updates = Metrics.counter m "detector.updates" in
  let c_occurrences = Metrics.counter m "detector.occurrences" in
  let c_borderline = Metrics.counter m "detector.borderline" in
  let h_latency =
    Metrics.histogram m ~lo:0.0 ~hi:2000.0 ~bins:20 "detector.latency_ms"
  in
  let seqs = Array.make n 0 in
  let all_updates = Vec.create ~dummy:Observation.dummy () in
  let occurrences = Vec.create
      ~dummy:{ Occurrence.detect_time = Sim_time.zero;
               trigger = Observation.dummy; verdict = Occurrence.Positive } () in
  let arrivals : 'a buffered Queue.t = Queue.create () in
  let deferred : 'a buffered list ref = ref [] in
  let applied : 'a applied Queue.t = Queue.create () in
  let hung = ref false in
  let self = ref None in
  let fire occ =
    Vec.push occurrences occ;
    Metrics.incr c_occurrences;
    let verdict =
      match occ.Occurrence.verdict with
      | Occurrence.Positive -> "positive"
      | Occurrence.Borderline ->
          Metrics.incr c_borderline;
          "borderline"
    in
    let latency =
      Sim_time.sub occ.Occurrence.detect_time
        occ.Occurrence.trigger.Observation.sense_time
    in
    Metrics.observe h_latency (Sim_time.to_ms_float latency);
    (* The sense-to-detect window rides on the occurrence record; the
       Chrome exporter renders it as a duration slice ending here. *)
    trace engine ~pid:0
      (Trace.Detector_occurrence { verdict; window_ns = Sim_time.to_ns latency });
    match !self with Some d -> Detector.notify d occ | None -> ()
  in
  (* Race analysis at a φ-rise caused by [u]: does a racing update from
     another process (applied, later in the batch, or held) decide it? *)
  let borderline_rise (u : Observation.update) stamp rest_of_batch =
    let decides (v : Observation.update) s value =
      v.Observation.src <> u.Observation.src
      && discipline.race stamp s
      && not
           (Checker_state.eval_with_override state
              ~var:(Observation.located v) ~value)
    in
    let pending b =
      decides b.msg.update b.msg.stamp (Some b.msg.update.Observation.value)
    in
    Seq.exists
      (fun a -> decides a.a_update a.a_stamp a.a_prev)
      (Queue.to_seq applied)
    || List.exists pending rest_of_batch
    || Seq.exists pending (Queue.to_seq arrivals)
  in
  let apply_one now (b : 'a buffered) rest =
    let u = b.msg.update in
    let transition, prev = Checker_state.apply state u in
    Queue.push
      { a_update = u; a_stamp = b.msg.stamp; a_prev = prev; a_time = now }
      applied;
    match transition with
    | Checker_state.Rose when not !hung ->
        let verdict =
          if borderline_rise u b.msg.stamp rest then Occurrence.Borderline
          else Occurrence.Positive
        in
        fire { Occurrence.detect_time = now; trigger = u; verdict };
        if cfg.once then hung := true
    | Checker_state.Rose | Checker_state.Fell | Checker_state.Same -> ()
  in
  let order a b =
    (* Racing stamps (ties / concurrent / within skew) carry no usable
       order; when the discipline allows it, arrival time — the best
       physical estimate available to the checker — breaks those.
       Non-racing stamps follow the discipline's linear extension. *)
    let c =
      if discipline.arrival_tie_break && discipline.race a.msg.stamp b.msg.stamp
      then 0
      else discipline.compare a.msg.stamp b.msg.stamp
    in
    if c <> 0 then c
    else
      let c = Sim_time.compare a.recv_time b.recv_time in
      if c <> 0 then c
      else
        let c =
          Stdlib.compare a.msg.update.Observation.src
            b.msg.update.Observation.src
        in
        if c <> 0 then c
        else
          Stdlib.compare a.msg.update.Observation.seq
            b.msg.update.Observation.seq
  in
  let flush () =
    span engine ~pid:0 "detector.flush" @@ fun () ->
    let now = Engine.now engine in
    let ready_by = Sim_time.sub now cfg.hold in
    let cutoff = Sim_time.sub ready_by cfg.hold in
    while
      (not (Queue.is_empty applied))
      && Sim_time.( < ) (Queue.peek applied).a_time cutoff
    do
      ignore (Queue.pop applied)
    done;
    let batch = ref !deferred in
    while
      (not (Queue.is_empty arrivals))
      && Sim_time.( <= ) (Queue.peek arrivals).recv_time ready_by
    do
      batch := Queue.pop arrivals :: !batch
    done;
    (* A ready update must wait while a held one has a strictly smaller
       stamp (the least, as [compare] is a total preorder): applying it
       now would break the stamp order across flush batches.  Every held
       update has its own flush scheduled, so deferral cannot starve. *)
    let least =
      Queue.fold
        (fun m h ->
          match m with
          | Some s when discipline.compare s h.msg.stamp <= 0 -> m
          | _ -> Some h.msg.stamp)
        None arrivals
    in
    let rec apply_prefix = function
      | [] -> []
      | b :: rest as blocked -> (
          match least with
          | Some m when discipline.compare m b.msg.stamp < 0 -> blocked
          | _ ->
              apply_one now b rest;
              apply_prefix rest)
    in
    deferred := apply_prefix (List.sort order !batch)
  in
  let arrive msg =
    Queue.push { msg; recv_time = Engine.now engine } arrivals;
    Engine.schedule_after_unit engine cfg.hold flush
  in
  (* Checker receives at process 0; every process updates its clock. *)
  transport.tx_on_receive (fun ~dst (msg : 'a message) ->
      trace engine ~pid:dst (Trace.Clock_receive { clock = discipline.name });
      discipline.on_receive ~dst msg.stamp;
      if dst = 0 then arrive msg);
  let emit ~src ~var value =
    if src < 0 || src >= n then invalid_arg "Detector.emit: src out of range";
    span engine ~pid:src "detector.emit" @@ fun () ->
    let u =
      {
        Observation.src;
        var;
        value;
        seq = seqs.(src);
        sense_time = Engine.now engine;
      }
    in
    seqs.(src) <- seqs.(src) + 1;
    Vec.push all_updates u;
    Metrics.incr c_updates;
    trace engine ~pid:src
      (Trace.Detector_update { var = u.Observation.var; seq = u.Observation.seq });
    let stamp = discipline.stamp_of_emit ~src in
    trace engine ~pid:src (Trace.Clock_tick { clock = discipline.name });
    let msg = { update = u; stamp } in
    (* System-wide strobe broadcast (SSC1/SVC1) or, in the causality
       baseline, a unicast to the checker; the sender's own copy is
       local. *)
    if cfg.unicast then transport.tx_unicast0 ~src msg
    else begin
      trace engine ~pid:src (Trace.Clock_strobe { clock = discipline.name });
      transport.tx_broadcast ~src msg
    end;
    if src = 0 then arrive msg
  in
  let t =
    {
      Detector.emit;
      occurrences = (fun () -> Vec.to_list occurrences);
      updates = (fun () -> Vec.to_list all_updates);
      messages_sent = (fun () -> transport.tx_sent ());
      words_sent = (fun () -> transport.tx_words ());
      messages_dropped = (fun () -> transport.tx_dropped ());
      on_occurrence = ignore;
    }
  in
  self := Some t;
  t

(* --- The clock table ---

   One row per [Clock_kind.t].  Rows that read a hardware clock split
   [Engine.rng] for their clocks before [create] splits it for the
   transport, so every run draws the same streams it always has. *)

(* Lamport and strobe scalars: int stamps, ordered by value (then
   arrival); equal stamps race. *)
let scalar ~name ~stamp_words ~stamp ~receive =
  {
    name;
    stamp_of_emit = stamp;
    on_receive = receive;
    compare = Int.compare;
    race = Int.equal;
    arrival_tie_break = true;
    stamp_words;
  }

(* Strobe and Mattern/Fidge vectors as handles into one stamp plane per
   detector.  The component sum strictly increases along the vector
   order, so (sum, lexicographic) is a linear extension; incomparable
   stamps race. *)
let vector plane ~name ~stamp_words ~stamp ~receive =
  {
    name;
    stamp_of_emit = stamp;
    on_receive = receive;
    compare =
      (fun a b ->
        let c =
          Int.compare (Stamp_plane.total plane a) (Stamp_plane.total plane b)
        in
        if c <> 0 then c else Stamp_plane.compare_lex plane a b);
    race = Stamp_plane.concurrent plane;
    arrival_tie_break = true;
    stamp_words;
  }

let closer_than window a b =
  let d = if Sim_time.( >= ) a b then Sim_time.sub a b else Sim_time.sub b a in
  Sim_time.( < ) d window

(* Physical readings: receivers' clocks do not react, and the checker
   trusts the timestamp order outright (Mayo–Kearns timestamp ordering,
   no arrival tie-break). *)
let physical engine ~name ~clocks ~read ~race =
  {
    name;
    stamp_of_emit = (fun ~src -> read clocks.(src) ~now:(Engine.now engine));
    on_receive = (fun ~dst:_ _ -> ());
    compare = Sim_time.compare;
    race;
    arrival_tie_break = false;
    stamp_words = 1;
  }

let for_clock ?loss ?topology ?init ?(once = false) engine ~clock ~n ~delay
    ~hold ~predicate =
  let run ?(unicast = false) ~hold discipline =
    create ?loss ?topology ?init engine ~n ~delay ~predicate ~discipline
      ~cfg:{ hold; once; unicast }
  in
  let hw_rng () = Psn_util.Rng.split (Engine.rng engine) in
  (* ε-synchronized clocks read true time ± ε/2 (Mayo–Kearns [28],
     Stoller [34]); stamps closer than 2ε race, the source of E2's false
     negatives.  The checker holds back Δ + ε: an update stamped earlier
     can arrive up to Δ later and clock error blurs another ε, so
     flushing sooner would fall back to arrival order and hide the race
     window. *)
  let synced eps =
    let rng = hw_rng () in
    let clocks =
      Array.init n (fun _ -> Physical_clock.synced_within rng ~eps)
    in
    run ~hold:(Sim_time.add hold eps)
      (physical engine ~name:"physical" ~clocks ~read:Physical_clock.read
         ~race:(closer_than (Sim_time.add eps eps)))
  in
  match (clock : Clock_kind.t) with
  | Perfect_physical -> synced Sim_time.zero
  | Synced_physical { eps } -> synced eps
  | Logical_scalar ->
      (* Causality baseline (SC1–SC3): stamps ride on updates unicast to
         the checker, sensors never hear each other and their scalars
         drift apart, so (stamp, pid) is far from real-time order — the
         strobes, not the counters, buy the accuracy (ablation A1). *)
      let clocks = Array.init n (fun me -> Psn_clocks.Lamport.create ~me) in
      run ~unicast:true ~hold
        (scalar ~name:"lamport-unicast" ~stamp_words:1
           ~stamp:(fun ~src -> Psn_clocks.Lamport.send clocks.(src))
           ~receive:(fun ~dst s ->
             ignore (Psn_clocks.Lamport.receive clocks.(dst) s)))
  | Logical_vector ->
      (* Mattern/Fidge (VC1–VC3) on unicast reports: cross-sensor
         components stay zero, so nearly every pair of updates from
         different sensors is concurrent and the borderline bin swallows
         most rises — causality clocks without strobes. *)
      let module Vc = Psn_clocks.Vector_clock in
      let plane = Stamp_plane.create ~n () in
      let clocks = Array.init n (fun me -> Vc.create ~n ~me) in
      run ~unicast:true ~hold
        (vector plane ~name:"causal-vector-unicast" ~stamp_words:n
           ~stamp:(fun ~src -> Vc.send_into plane clocks.(src))
           ~receive:(fun ~dst h -> Vc.receive_from plane clocks.(dst) h))
  | Strobe_scalar ->
      (* SSC1–SSC2, ref [25]: the update broadcast is the strobe.  Ties
         are linearized arbitrarily, which is why scalar strobes "may
         also result in some false positives". *)
      let module Ss = Psn_clocks.Strobe_scalar in
      let clocks = Array.init n (fun me -> Ss.create ~me) in
      run ~hold
        (scalar ~name:"strobe-scalar" ~stamp_words:Ss.stamp_size_words
           ~stamp:(fun ~src -> Ss.tick_and_strobe clocks.(src))
           ~receive:(fun ~dst s -> Ss.receive_strobe clocks.(dst) s))
  | Strobe_vector ->
      (* SVC1–SVC2, ref [24]: concurrency is visible, so a rise that a
         concurrent reordering could falsify goes to the borderline bin
         and most residual errors are false negatives (§3.3). *)
      let module Sv = Psn_clocks.Strobe_vector in
      let plane = Stamp_plane.create ~n () in
      let clocks = Array.init n (fun me -> Sv.create ~n ~me) in
      run ~hold
        (vector plane ~name:"strobe-vector"
           ~stamp_words:(Sv.stamp_size_words n)
           ~stamp:(fun ~src -> Sv.tick_and_strobe_into plane clocks.(src))
           ~receive:(fun ~dst h -> Sv.receive_strobe_from plane clocks.(dst) h))
  | Physical_vector ->
      (* Raw, unsynchronized hardware clocks linearized by local reading:
         the "software clocks without sync" corner of the space. *)
      let rng = hw_rng () in
      let clocks =
        Array.init n (fun _ ->
            Physical_clock.create rng ~max_offset:(Sim_time.of_ms 500)
              ~max_drift_ppm:100.0)
      in
      run ~hold
        (physical engine ~name:"physical-raw" ~clocks
           ~read:Physical_clock.read_raw ~race:(fun _ _ -> false))
  | Hybrid_logical { max_offset; max_drift_ppm } ->
      (* HLCs over drifting hardware clocks: receivers merge (l, c), which
         drags every l up to the fastest clock seen.  Pairwise offsets
         reach twice the per-clock bound; l-components closer than that
         race and arrival breaks the tie. *)
      let module Hlc = Psn_clocks.Hlc in
      let rng = hw_rng () in
      let clocks =
        Array.init n (fun me ->
            Hlc.create ~me (Physical_clock.create rng ~max_offset ~max_drift_ppm))
      in
      let race_window = Sim_time.add max_offset max_offset in
      run ~hold
        {
          name = "hlc";
          stamp_of_emit =
            (fun ~src -> Hlc.tick clocks.(src) ~now:(Engine.now engine));
          on_receive =
            (fun ~dst s ->
              ignore (Hlc.receive clocks.(dst) ~now:(Engine.now engine) s));
          compare = Hlc.compare_stamp;
          race = (fun a b -> closer_than race_window a.Hlc.l b.Hlc.l);
          arrival_tie_break = true;
          stamp_words = 2;
        }
