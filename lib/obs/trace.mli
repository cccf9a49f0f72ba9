(** Structured trace sink: typed events from every layer of a run.

    Each record carries the simulated time (integer nanoseconds, mirroring
    [Psn_sim.Sim_time] without depending on it — [Psn_sim] sits above this
    library), the emitting process id, and a monotonically increasing trace
    sequence number. Runs are deterministic, so with a fixed seed the trace
    is a reproducible artifact: identical seeds must yield identical traces.

    Beyond instant events the sink records two causal structures:

    - {b Spans}: [Span_begin]/[Span_end] pairs delimit durations (an
      engine-event execution, a detector flush, a snapshot round).  Spans
      must balance per (pid, lane); [lane_sync] is for spans opened and
      closed within one engine event (they nest trivially), [lane_window]
      for spans crossing engine events, which would otherwise interleave.

    - {b Flow ids}: every traced message transmission carries a
      per-sink correlation id shared by its [Net_send] and the matching
      [Net_deliver] (or [Net_drop]), so exporters can draw the
      happens-before edge between process tracks.

    The sink is zero-cost when disabled: instrumented layers hold a
    [sink option] and skip all work on [None]. *)

type event =
  | Engine_schedule of { at : int }  (** event queued for time [at] *)
  | Engine_fire                        (** queued event popped and executed *)
  | Engine_cancel                      (** a handle was cancelled *)
  | Span_begin of { name : string; lane : int }  (** duration start *)
  | Span_end of { name : string; lane : int }    (** matching duration end *)
  | Net_send of { src : int; dst : int; words : int; kind : string; flow : int }
  | Net_deliver of { src : int; dst : int; kind : string; flow : int }
  | Net_drop of { src : int; dst : int; kind : string; flow : int }
  | Clock_tick of { clock : string }     (** local clock ticked at a sense event *)
  | Clock_receive of { clock : string }  (** receiver clock reacted to a stamp *)
  | Clock_strobe of { clock : string }   (** stamp broadcast system-wide *)
  | Detector_update of { var : string; seq : int }
  | Detector_occurrence of { verdict : string; window_ns : int }
      (** [window_ns]: sense-to-detect latency of the trigger, rendered by
          the Chrome exporter as a duration slice ending at the record's
          time *)
  | Lattice_commit of { level : int; live : int; committed : int }
      (** streaming-lattice progress at a detector flush: highest
          finalized cut level, cuts in the live slab, total committed
          cuts — the slab-occupancy evidence [Analyze] aggregates *)
  | Mark of { name : string }
      (** middleware milestones (causal delivery, snapshot markers, ...) *)

type record = { seq : int; time : int; pid : int; event : event }

val engine_pid : int
(** Pseudo process id (-1) for engine-level events, which belong to the
    simulation substrate rather than to any process. *)

val lane_sync : int
(** Lane 0: spans contained in a single engine-event execution. *)

val lane_window : int
(** Lane 1: spans crossing engine events (snapshot rounds, critical
    sections, occurrence windows); mapped to a separate Chrome tid so
    they cannot break lane-0 nesting. *)

type sink

val create : ?retain:bool -> unit -> sink
(** [retain] (default [true]): keep records in the sink for later
    iteration/export.  [~retain:false] turns the sink into a pure stream
    head — records are handed to the tap (below) and discarded, so an
    online consumer (e.g. [Analyze]) can sit inline during a heavy run
    without the trace growing with run length.  Sequence and flow-id
    allocation are identical either way, so a retained and an unretained
    same-seed run see byte-identical record streams. *)

val set_tap : sink -> (record -> unit) option -> unit
(** Install (or remove) a streaming observer called with every record as
    it is emitted, after the optional append.  One tap per sink. *)

val emit : sink -> time:int -> pid:int -> event -> unit
(** Append a record; the sink assigns the next sequence number. *)

val fresh_flow : sink -> int
(** Allocate the next message-correlation id.  Deterministic: allocation
    order is part of the trace contract, so same-seed runs allocate the
    same ids. *)

val with_span :
  sink -> time:int -> pid:int -> string ->
  (unit -> 'a) -> time_end:(unit -> int) -> 'a
(** [with_span sink ~time ~pid name f ~time_end] emits a balanced
    [Span_begin]/[Span_end] pair on {!lane_sync} around [f] (the end
    also on exceptions);
    [time_end] is consulted after [f] since simulated time may advance
    during it. *)

val length : sink -> int
val clear : sink -> unit
val iter : (record -> unit) -> sink -> unit
val records : sink -> record list

val event_name : event -> string
(** Dotted layer-qualified name, e.g. ["net.send"] or ["engine.fire"];
    spans and marks answer their own name. *)

(** {2 Per-domain default sink}

    Layers that create their own engines deep inside a run (scenarios,
    experiment sweeps) pick the default sink up at engine creation, so a
    CLI flag can enable tracing without threading a value through every
    constructor.  The default is domain-local: an engine created on
    another domain does not see it. *)

val default : unit -> sink option
(** The calling domain's default sink. *)

val with_default : sink -> (unit -> 'a) -> 'a
(** [with_default s f] installs [s] as the calling domain's default, runs
    [f], and restores the previous default even on exceptions.  While [f]
    runs, {!Psn_util.Parallel} maps issued from this domain stay on it
    ({!Psn_util.Parallel.sequentially}), so every engine a map creates
    picks [s] up and the record stream is the same at any domain
    count. *)
