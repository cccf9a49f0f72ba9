(* Interval-queue detection of Cooper–Marzullo modalities for conjunctive
   predicates over strobe vector clocks — the Garg–Waldecker queue
   algorithm [14] as used for pervasive context by Huang et al. [17],
   generalized over the modality and adapted to repeated detection (the
   paper's §3.3 requirement that *each* occurrence be detected, where
   prior algorithms "hang" after the first).

   Each sensor i evaluates its local conjunct φ_i on every local update,
   through its own [Checker_state] over φ_i (the compiled evaluation the
   linearizing checker runs, with the same "unbound means false" rule);
   the maximal spans where φ_i holds are intervals, stamped at both ends
   by the strobe vector clock.  Closed intervals are reported to the
   checker, which keeps one queue per participating process and
   repeatedly tests the queue heads pairwise:

     Definitely(i,j)  =    lo_i ≤ hi_j  ∧  lo_j ≤ hi_i
     Possibly(i,j)    =  ¬(hi_i ≤ lo_j) ∧ ¬(hi_j ≤ lo_i)

   under the vector order.  If every pair passes, the modality holds:
   detect and pop the head(s) that provably end first (their hi causally
   precedes another head's hi), so that later overlaps with the surviving
   long intervals are still found — this is what makes detection
   *repeated*.  Otherwise delete every provably dead head:

     Definitely:  ¬(lo_i ≤ hi_j) kills X_j  (later i-intervals start
                  even later, so X_j can never satisfy the condition)
     Possibly:      hi_i ≤ lo_j  kills X_i  (X_i wholly precedes every
                  current and future j-interval). *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Net = Psn_network.Net
module Vec = Psn_util.Vec
module Vc = Psn_clocks.Vector_clock
module Strobe_vector = Psn_clocks.Strobe_vector
module Expr = Psn_predicates.Expr
module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics

let trace engine ~pid ev =
  match Engine.tracer engine with
  | Some s -> Trace.emit s ~time:(Engine.now engine) ~pid ev
  | None -> ()

let clock_name = "strobe-vector"

type mode = Definitely | Possibly

type interval_report = {
  r_proc : int;
  r_lo : Vc.stamp;
  r_hi : Vc.stamp;
  r_start_update : Observation.update;  (* update that made φ_i rise *)
}

type msg =
  | Strobe of Vc.stamp
  | Interval of interval_report

let payload_words ~n = function Strobe _ -> n + 1 | Interval _ -> (2 * n) + 2

(* One sensor's conjunct φ_i and the interval it has open. *)
type local = {
  state : Checker_state.t;
  mutable open_lo : Vc.stamp option;
  mutable open_trigger : Observation.update option;
}

(* Modality-specific head analysis: which heads are dead right now? *)
let dead_heads mode heads =
  match mode with
  | Definitely ->
      List.filter
        (fun (j, xj) ->
          List.exists
            (fun (i, xi) -> i <> j && not (Vc.leq xi.r_lo xj.r_hi))
            heads)
        heads
  | Possibly ->
      List.filter
        (fun (i, xi) ->
          List.exists (fun (j, xj) -> i <> j && Vc.leq xi.r_hi xj.r_lo) heads)
        heads

let create ?loss ?init ?(once = false) engine ~mode ~n ~delay ~horizon
    ~predicate =
  let conjuncts =
    match Expr.conjuncts predicate with
    | Some cs -> cs
    | None ->
        invalid_arg
          "Interval_detector.create: predicate is relational, not conjunctive"
  in
  (* Conjuncts grouped per process; processes without a conjunct get
     [true] (they only relay strobes). *)
  let conjunct_of = Array.make n (Expr.bool true) in
  List.iter
    (fun (loc, e) ->
      if loc < 0 || loc >= n then
        invalid_arg "Interval_detector.create: conjunct location out of range";
      conjunct_of.(loc) <- Expr.(conjunct_of.(loc) &&& e))
    conjuncts;
  let participating =
    List.sort_uniq Stdlib.compare (List.map fst conjuncts)
  in
  let net =
    Net.create ?loss ~payload_words:(payload_words ~n) ~label:"detector" engine
      ~n ~delay
  in
  let m = Engine.metrics engine in
  let c_updates = Metrics.counter m "detector.updates" in
  let c_occurrences = Metrics.counter m "detector.occurrences" in
  let h_latency =
    Metrics.histogram m ~lo:0.0 ~hi:2000.0 ~bins:20 "detector.latency_ms"
  in
  let clocks = Array.init n (fun me -> Strobe_vector.create ~n ~me) in
  let locals =
    Array.init n (fun i ->
        let state = Checker_state.create ?init conjunct_of.(i) in
        let open_lo =
          if Checker_state.holds state then Some (Strobe_vector.read clocks.(i))
          else None
        in
        { state; open_lo; open_trigger = None })
  in
  let seqs = Array.make n 0 in
  let all_updates = Vec.create ~dummy:Observation.dummy () in
  let occurrences =
    Vec.create
      ~dummy:{ Occurrence.detect_time = Sim_time.zero;
               trigger = Observation.dummy; verdict = Occurrence.Positive } ()
  in
  let hung = ref false in
  let self = ref None in
  let fire occ =
    Vec.push occurrences occ;
    Metrics.incr c_occurrences;
    let latency =
      Sim_time.sub occ.Occurrence.detect_time
        occ.Occurrence.trigger.Observation.sense_time
    in
    Metrics.observe h_latency (Sim_time.to_ms_float latency);
    trace engine ~pid:0
      (Trace.Detector_occurrence
         { verdict = "positive"; window_ns = Sim_time.to_ns latency });
    match !self with Some d -> Detector.notify d occ | None -> ()
  in
  (* Checker state: one queue of closed intervals per participating
     process. *)
  let queues = Array.make n ([] : interval_report list) in
  let enqueue r = queues.(r.r_proc) <- queues.(r.r_proc) @ [ r ] in
  let heads_available () =
    List.for_all (fun i -> queues.(i) <> []) participating
  in
  let rec reduce () =
    if heads_available () then begin
      let heads = List.map (fun i -> (i, List.hd queues.(i))) participating in
      let dead = dead_heads mode heads in
      if dead = [] then begin
        (* The modality holds across all heads: detect. *)
        if not !hung then begin
          let trigger =
            (* Anchor: the latest-starting head (scoring only). *)
            List.fold_left
              (fun best (_, x) ->
                match best with
                | None -> Some x.r_start_update
                | Some b ->
                    if
                      Sim_time.( > ) x.r_start_update.Observation.sense_time
                        b.Observation.sense_time
                    then Some x.r_start_update
                    else Some b)
              None heads
          in
          (match trigger with
          | Some trigger ->
              fire
                { Occurrence.detect_time = Engine.now engine; trigger;
                  verdict = Occurrence.Positive }
          | None -> ());
          if once then hung := true
        end;
        (* Pop the earliest-ending head(s): those whose end provably
           precedes another head's end.  When no end order is certifiable
           (all ends concurrent), pop everything. *)
        let outlived =
          List.filter
            (fun (i, xi) ->
              List.exists
                (fun (j, xj) ->
                  i <> j && Vc.happened_before xi.r_hi xj.r_hi)
                heads)
            heads
        in
        let to_pop = if outlived = [] then heads else outlived in
        List.iter (fun (i, _) -> queues.(i) <- List.tl queues.(i)) to_pop;
        reduce ()
      end
      else begin
        List.iter (fun (j, _) -> queues.(j) <- List.tl queues.(j)) dead;
        reduce ()
      end
    end
  in
  let checker_receive r =
    enqueue r;
    reduce ()
  in
  for dst = 0 to n - 1 do
    Net.set_handler net dst (fun ~src:_ msg ->
        match msg with
        | Strobe stamp ->
            trace engine ~pid:dst (Trace.Clock_receive { clock = clock_name });
            Strobe_vector.receive_strobe clocks.(dst) stamp
        | Interval r -> if dst = 0 then checker_receive r)
  done;
  let close_interval i hi =
    let l = locals.(i) in
    match (l.open_lo, l.open_trigger) with
    | Some lo, Some trigger ->
        let r = { r_proc = i; r_lo = lo; r_hi = hi; r_start_update = trigger } in
        l.open_lo <- None;
        l.open_trigger <- None;
        if i = 0 then checker_receive r
        else Net.send net ~src:i ~dst:0 (Interval r)
    | _ ->
        l.open_lo <- None;
        l.open_trigger <- None
  in
  let emit ~src ~var value =
    if src < 0 || src >= n then invalid_arg "Detector.emit: src out of range";
    let u =
      { Observation.src; var; value; seq = seqs.(src);
        sense_time = Engine.now engine }
    in
    seqs.(src) <- seqs.(src) + 1;
    Vec.push all_updates u;
    Metrics.incr c_updates;
    trace engine ~pid:src
      (Trace.Detector_update { var = u.Observation.var; seq = u.Observation.seq });
    let l = locals.(src) in
    let stamp = Strobe_vector.tick_and_strobe clocks.(src) in
    trace engine ~pid:src (Trace.Clock_tick { clock = clock_name });
    trace engine ~pid:src (Trace.Clock_strobe { clock = clock_name });
    Net.broadcast net ~src (Strobe stamp);
    match fst (Checker_state.apply l.state u) with
    | Checker_state.Rose ->
        l.open_lo <- Some stamp;
        l.open_trigger <- Some u
    | Checker_state.Fell -> close_interval src stamp
    | Checker_state.Same -> ()
  in
  (* At the horizon, close any still-open intervals so occurrences in
     progress are not lost. *)
  Engine.schedule_at_unit engine horizon (fun () ->
         Array.iteri
           (fun i l ->
             if Checker_state.holds l.state && l.open_lo <> None then begin
               let stamp = Strobe_vector.tick_and_strobe clocks.(i) in
               trace engine ~pid:i (Trace.Clock_tick { clock = clock_name });
               trace engine ~pid:i (Trace.Clock_strobe { clock = clock_name });
               Net.broadcast net ~src:i (Strobe stamp);
               close_interval i stamp
             end)
           locals);
  let t =
    {
      Detector.emit;
      occurrences = (fun () -> Vec.to_list occurrences);
      updates = (fun () -> Vec.to_list all_updates);
      messages_sent = (fun () -> Net.sent net);
      words_sent = (fun () -> Net.words_transmitted net);
      messages_dropped = (fun () -> Net.dropped net);
      on_occurrence = ignore;
    }
  in
  self := Some t;
  t
