(* Structured trace sink.

   A sink is a growable array of typed records; emission is an O(1)
   append plus a sequence-number bump. Everything user-facing (export,
   filtering, pretty names) lives in [Export]; this module only captures.

   Time is integer nanoseconds rather than [Psn_sim.Sim_time.t] because
   [Psn_sim] depends on this library (the engine carries the sink), so
   the dependency cannot point the other way. The representations are
   identical.

   Two id spaces live here besides the record sequence number:

   - Flow ids correlate a message send with its delivery (or drop): the
     network allocates one per traced transmission via [fresh_flow], so
     the exporters can draw send -> deliver arrows between process
     tracks.  Ids are per-sink and allocation order is deterministic,
     so same-seed traces stay byte-identical.

   - Span lanes separate nesting domains.  Chrome's B/E duration events
     must nest properly per (pid, tid); spans emitted from inside a
     single engine-event execution (lane 0) trivially nest, but
     long-lived spans that start in one engine event and end in another
     (a snapshot round, a mutex critical section) would interleave with
     them.  Such spans go to lane 1, which the Chrome exporter maps to a
     separate tid. *)

type event =
  | Engine_schedule of { at : int }
  | Engine_fire
  | Engine_cancel
  | Span_begin of { name : string; lane : int }
  | Span_end of { name : string; lane : int }
  | Net_send of { src : int; dst : int; words : int; kind : string; flow : int }
  | Net_deliver of { src : int; dst : int; kind : string; flow : int }
  | Net_drop of { src : int; dst : int; kind : string; flow : int }
  | Clock_tick of { clock : string }
  | Clock_receive of { clock : string }
  | Clock_strobe of { clock : string }
  | Detector_update of { var : string; seq : int }
  | Detector_occurrence of { verdict : string; window_ns : int }
  | Lattice_commit of { level : int; live : int; committed : int }
  | Mark of { name : string }

type record = { seq : int; time : int; pid : int; event : event }

let engine_pid = -1

let lane_sync = 0
let lane_window = 1

let dummy_record = { seq = 0; time = 0; pid = 0; event = Engine_fire }

type sink = {
  mutable next_seq : int;
  mutable next_flow : int;
  retain : bool;
  mutable tap : (record -> unit) option;
  records : record Psn_util.Vec.t;
}

let create ?(retain = true) () =
  { next_seq = 0; next_flow = 0; retain; tap = None;
    records = Psn_util.Vec.create ~dummy:dummy_record () }

let set_tap sink tap = sink.tap <- tap

let emit sink ~time ~pid event =
  let seq = sink.next_seq in
  sink.next_seq <- seq + 1;
  let r = { seq; time; pid; event } in
  if sink.retain then Psn_util.Vec.push sink.records r;
  match sink.tap with Some f -> f r | None -> ()

let fresh_flow sink =
  let id = sink.next_flow in
  sink.next_flow <- id + 1;
  id

let length sink = Psn_util.Vec.length sink.records

let iter f sink = Psn_util.Vec.iter f sink.records
let records sink = Psn_util.Vec.to_list sink.records

let event_name = function
  | Engine_schedule _ -> "engine.schedule"
  | Engine_fire -> "engine.fire"
  | Engine_cancel -> "engine.cancel"
  | Span_begin { name; _ } | Span_end { name; _ } -> name
  | Net_send _ -> "net.send"
  | Net_deliver _ -> "net.deliver"
  | Net_drop _ -> "net.drop"
  | Clock_tick _ -> "clock.tick"
  | Clock_receive _ -> "clock.receive"
  | Clock_strobe _ -> "clock.strobe"
  | Detector_update _ -> "detector.update"
  | Detector_occurrence _ -> "detector.occurrence"
  | Lattice_commit _ -> "lattice.commit"
  | Mark { name } -> name

(* Balanced span over [f], both endpoints at the caller-supplied times.
   [time_end] is read after [f] returns because simulated time may have
   advanced during it. *)
let with_span sink ~time ~pid name f ~time_end =
  emit sink ~time ~pid (Span_begin { name; lane = lane_sync });
  let finally () =
    emit sink ~time:(time_end ()) ~pid (Span_end { name; lane = lane_sync })
  in
  Fun.protect ~finally f

(* Per-domain default, picked up by [Engine.create] on the installing
   domain only. *)
let default_sink : sink option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let default () = Domain.DLS.get default_sink

let with_default s f =
  let saved = default () in
  Domain.DLS.set default_sink (Some s);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set default_sink saved)
    (fun () -> Psn_util.Parallel.sequentially f)
