(** Trace exporters: JSONL and Chrome [trace_event] format.

    Both are deterministic byte-for-byte given the same sink contents, so
    traces from equal seeds diff clean. The Chrome export loads in
    Perfetto / [chrome://tracing]: processes map to tracks ([pid]),
    [Span_begin]/[Span_end] records to duration slices (["B"]/["E"], one
    Chrome tid per span lane), message send/deliver pairs to thin slices
    joined by flow arrows (["s"]/["f"] events keyed by the correlation
    id), detector occurrences with a window to latency slices, and — when
    a timeline is given — metric samples to counter tracks (["C"]).
    Simulated nanoseconds map to trace microseconds. *)

val jsonl_to_buffer : Buffer.t -> Trace.sink -> unit
(** One JSON object per record, one record per line, in emission order.
    Spans carry ["name"] and ["lane"]; net records carry their ["flow"]
    correlation id. *)

val jsonl_string : Trace.sink -> string
val write_jsonl : out_channel -> Trace.sink -> unit

val merged_jsonl : Trace.sink list -> string
(** Deterministic merge of per-shard sinks: records sorted by
    (time, pid, rendered body) and re-sequenced.  The ordering keys are
    substrate-invariant, so a sharded run's merged trace is
    byte-identical to the single-queue oracle's when both emitted the
    same records — per-sink sequence numbers (arrival interleaving) are
    dropped by design. *)

val timeline_jsonl_to_buffer : Buffer.t -> Metrics.timeline -> unit
(** One line per sample: [{"t_ns":..,"values":{"metric":v,..}}], oldest
    first. *)

val timeline_jsonl_string : Metrics.timeline -> string
val write_timeline_jsonl : out_channel -> Metrics.timeline -> unit

val chrome_to_buffer :
  ?timeline:Metrics.timeline -> Buffer.t -> Trace.sink list -> unit
(** A complete [{"traceEvents":[...]}] document: spans, flow arrows,
    instants, and (with [?timeline]) counter tracks, with process-name
    metadata.  Sink [g] of the list renders in tid block
    [g * stride + lane] (with [stride] the deepest span lane any sink
    used, at least 2), so the per-group sinks of a sharded run map to
    tids deterministically instead of colliding on lanes 0/1; a single
    sink's document is block 0. *)

val chrome_string : ?timeline:Metrics.timeline -> Trace.sink list -> string
val write_chrome : ?timeline:Metrics.timeline -> out_channel -> Trace.sink list -> unit

val shard_chrome_string : Shard_stats.t -> string
(** Host-time Gantt of a sharded run from its {!Shard_stats}: shard =
    pid row (one ["window"] slice per barrier window, carrying events
    and the window's limit), coordinator = pid 0 (explicit
    ["barrier.drain"] / ["barrier.fold"] slices), cross-shard mail =
    flow arrows from the sending window to the receiving one.  The
    time axis is a synthetic host-ns cursor laying slices end to end
    in execution order. *)

val write_shard_chrome : out_channel -> Shard_stats.t -> unit
