(* Trace exporters.

   JSONL: one object per record with a stable field order — cheap to
   grep, cheap to diff, and the determinism tests compare these bytes.

   Chrome trace_event: the "JSON Object Format" variant understood by
   Perfetto and chrome://tracing.  The mapping:

   - instant records become instant events ("ph":"i") on their process's
     track;
   - [Span_begin]/[Span_end] become duration events ("B"/"E"); the span's
     lane is the Chrome tid, so lane-0 spans (contained in one engine
     event) and lane-1 spans (crossing engine events) cannot break each
     other's nesting;
   - [Net_send]/[Net_deliver] become thin complete slices ("X", 1ns) with
     a flow-start ("s") / flow-finish ("f") pair bound to them and keyed
     by the message's correlation id, which is what makes Perfetto draw
     the send -> deliver arrow between process tracks;
   - [Detector_occurrence] with a non-zero window becomes a complete
     slice spanning [detect - window, detect] on the window lane: the
     sense-to-detect latency as a visible duration;
   - timeline samples (when a timeline is passed) become counter events
     ("C"), one per instrument per sample, on the engine track — Perfetto
     renders one counter track per instrument name.

   Sim-time nanoseconds become the format's microseconds with three
   decimals, so nothing is rounded away. *)

let args_of_event ev =
  match (ev : Trace.event) with
  | Engine_schedule { at } -> [ ("at_ns", Printf.sprintf "%d" at) ]
  | Engine_fire | Engine_cancel -> []
  | Span_begin { lane; _ } | Span_end { lane; _ } ->
      [ ("lane", string_of_int lane) ]
  | Net_send { src; dst; words; kind; flow } ->
      [
        ("src", string_of_int src);
        ("dst", string_of_int dst);
        ("words", string_of_int words);
        ("kind", Printf.sprintf "%S" kind);
        ("flow", string_of_int flow);
      ]
  | Net_deliver { src; dst; kind; flow } | Net_drop { src; dst; kind; flow } ->
      [
        ("src", string_of_int src);
        ("dst", string_of_int dst);
        ("kind", Printf.sprintf "%S" kind);
        ("flow", string_of_int flow);
      ]
  | Clock_tick { clock } | Clock_receive { clock } | Clock_strobe { clock } ->
      [ ("clock", Printf.sprintf "%S" clock) ]
  | Detector_update { var; seq } ->
      [ ("var", Printf.sprintf "%S" var); ("update_seq", string_of_int seq) ]
  | Detector_occurrence { verdict; window_ns } ->
      [
        ("verdict", Printf.sprintf "%S" verdict);
        ("window_ns", string_of_int window_ns);
      ]
  | Lattice_commit { level; live; committed } ->
      [
        ("level", string_of_int level);
        ("live", string_of_int live);
        ("committed", string_of_int committed);
      ]
  | Mark _ -> []

(* The args above pre-render values; keys are plain identifiers, and the
   only string values pass through %S, whose escaping coincides with JSON
   for the identifiers and labels used here. *)
let add_args buf args =
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      Buffer.add_string buf k;
      Buffer.add_string buf "\":";
      Buffer.add_string buf v)
    args

let type_name ev =
  match (ev : Trace.event) with
  | Mark _ -> "mark"
  | Span_begin _ -> "span.begin"
  | Span_end _ -> "span.end"
  | ev -> Trace.event_name ev

(* Everything after the sequence number: the seq-independent body shared
   by the straight serializer and the canonical merge below. *)
let jsonl_body buf (r : Trace.record) =
  Buffer.add_string buf
    (Printf.sprintf "\"t_ns\":%d,\"pid\":%d,\"type\":\"%s\"" r.time r.pid
       (type_name r.event));
  (match r.event with
  | Mark { name } | Span_begin { name; _ } | Span_end { name; _ } ->
      Buffer.add_string buf ",\"name\":";
      Json.escape_to_buffer buf name
  | _ -> ());
  add_args buf (args_of_event r.event);
  Buffer.add_string buf "}\n"

let jsonl_record buf (r : Trace.record) =
  Buffer.add_string buf (Printf.sprintf "{\"seq\":%d," r.seq);
  jsonl_body buf r

let jsonl_to_buffer buf sink = Trace.iter (jsonl_record buf) sink

let jsonl_string sink =
  let buf = Buffer.create 4096 in
  jsonl_to_buffer buf sink;
  Buffer.contents buf

let write_jsonl oc sink =
  let buf = Buffer.create 4096 in
  jsonl_to_buffer buf sink;
  Buffer.output_buffer oc buf

(* Canonical merge of per-shard sinks: records are ordered by
   (time, pid, rendered body) — keys a substrate cannot perturb — and
   re-sequenced, so the merged artifact of a sharded run is
   byte-identical to the single-queue oracle's whenever the two runs
   emitted the same record multiset.  Per-sink sequence numbers are
   deliberately dropped: they encode arrival interleaving, which is the
   one thing the window barrier is allowed to reorder among equal-time
   events. *)
let merged_jsonl sinks =
  let bodies =
    List.concat_map
      (fun sink ->
        List.map
          (fun (r : Trace.record) ->
            let b = Buffer.create 64 in
            jsonl_body b r;
            (r.time, r.pid, Buffer.contents b))
          (Trace.records sink))
      sinks
  in
  let sorted =
    List.sort
      (fun (t1, p1, b1) (t2, p2, b2) ->
        let c = compare (t1 : int) t2 in
        if c <> 0 then c
        else
          let c = compare (p1 : int) p2 in
          if c <> 0 then c else String.compare b1 b2)
      bodies
  in
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i (_, _, body) ->
      Buffer.add_string buf (Printf.sprintf "{\"seq\":%d," i);
      Buffer.add_string buf body)
    sorted;
  Buffer.contents buf

(* --- timeline JSONL ---------------------------------------------------- *)

let timeline_jsonl_to_buffer buf timeline =
  List.iter
    (fun (s : Metrics.sample) ->
      let values =
        List.map (fun (k, v) -> (k, Json.Float v)) s.Metrics.s_values
      in
      Json.to_buffer buf
        (Json.Obj
           [ ("t_ns", Json.Int s.Metrics.s_time_ns); ("values", Json.Obj values) ]);
      Buffer.add_char buf '\n')
    (Metrics.timeline_samples timeline)

let timeline_jsonl_string timeline =
  let buf = Buffer.create 4096 in
  timeline_jsonl_to_buffer buf timeline;
  Buffer.contents buf

let write_timeline_jsonl oc timeline =
  let buf = Buffer.create 4096 in
  timeline_jsonl_to_buffer buf timeline;
  Buffer.output_buffer oc buf

(* --- Chrome trace_event ------------------------------------------------ *)

(* Track id: engine events ([pid] = -1) on chrome pid 0, process i on
   chrome pid i+1, so every pid is non-negative as the format requires. *)
let chrome_pid pid = pid + 1

let ts_us_of_ns ns = Printf.sprintf "%d.%03d" (ns / 1000) (abs ns mod 1000)

(* A thin slice plus its flow endpoint.  Flow events pair up by (cat,
   name, id); "bp":"e" binds the finish to the enclosing slice, which is
   the X slice emitted at the same timestamp. *)
let chrome_flow_slice buf ~sep ~slice_name ~phase ~ts_us ~cpid ~tid ~flow ~seq
    ~args =
  sep ();
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":0.001,\"pid\":%d,\"tid\":%d,\"args\":{\"seq\":%d"
       slice_name ts_us cpid tid seq);
  add_args buf args;
  Buffer.add_string buf "}}";
  sep ();
  let bp = match phase with "f" -> ",\"bp\":\"e\"" | _ -> "" in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"msg\",\"cat\":\"net\",\"ph\":\"%s\"%s,\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":%d}"
       phase bp flow ts_us cpid tid)

(* One trace record as Chrome events.  [tid_base] offsets every thread
   id, so per-group sinks of a sharded run can render side by side —
   shard g owns the tid block starting at its base. *)
let chrome_record ~tid_base buf sep (r : Trace.record) =
  let ts_us = ts_us_of_ns r.time in
  let cpid = chrome_pid r.pid in
  match r.event with
  | Span_begin { name; lane } | Span_end { name; lane } ->
      let ph = match r.event with Span_begin _ -> "B" | _ -> "E" in
      sep ();
      Buffer.add_string buf "{\"name\":";
      Json.escape_to_buffer buf name;
      Buffer.add_string buf
        (Printf.sprintf
           ",\"ph\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"seq\":%d}}"
           ph ts_us cpid (tid_base + lane) r.seq)
  | Net_send { flow; _ } ->
      chrome_flow_slice buf ~sep ~slice_name:"net.send" ~phase:"s" ~ts_us
        ~cpid ~tid:tid_base ~flow ~seq:r.seq ~args:(args_of_event r.event)
  | Net_deliver { flow; _ } ->
      chrome_flow_slice buf ~sep ~slice_name:"net.deliver" ~phase:"f" ~ts_us
        ~cpid ~tid:tid_base ~flow ~seq:r.seq ~args:(args_of_event r.event)
  | Net_drop { flow; _ } ->
      (* A drop still finishes its flow: without the "f" endpoint the
         send's "s" arrow dangles (Perfetto hides it) and the loss is
         invisible.  The arrow lands on a thin net.drop slice at the
         receiver, so dropped messages read exactly like deliveries
         that died at the medium. *)
      chrome_flow_slice buf ~sep ~slice_name:"net.drop" ~phase:"f" ~ts_us
        ~cpid ~tid:tid_base ~flow ~seq:r.seq ~args:(args_of_event r.event)
  | Detector_occurrence { window_ns; _ } when window_ns > 0 ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"detector.occurrence\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"seq\":%d"
           (ts_us_of_ns (r.time - window_ns))
           (ts_us_of_ns window_ns) cpid (tid_base + Trace.lane_window) r.seq);
      add_args buf (args_of_event r.event);
      Buffer.add_string buf "}}"
  | _ ->
      sep ();
      Buffer.add_string buf "{\"name\":";
      Json.escape_to_buffer buf (Trace.event_name r.event);
      Buffer.add_string buf
        (Printf.sprintf
           ",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"seq\":%d"
           ts_us cpid tid_base r.seq);
      add_args buf (args_of_event r.event);
      Buffer.add_string buf "}}"

let process_name_row buf ~cpid ~name =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
       cpid name)

(* One Chrome document for one sink, or for the per-group sinks of a
   sharded run.  A span's lane is its Chrome tid, so merging per-group
   sinks naively would collide every group onto lanes 0/1; instead sink
   [g] renders into its own tid block [g * stride + lane], with [stride]
   wide enough for the deepest lane any sink used — a deterministic
   shard-id -> tid mapping, and a lone sink keeps base 0.  Emission
   order is sinks in list order, records in emission order, so the
   bytes are a pure function of the sink contents. *)
let chrome_to_buffer ?timeline buf sinks =
  Buffer.add_string buf "{\"traceEvents\":[";
  (* Name the tracks: one metadata event per distinct pid, in order. *)
  let pids = Hashtbl.create 16 in
  let max_lane = ref (Trace.lane_window + 1) in
  List.iter
    (fun sink ->
      Trace.iter
        (fun (r : Trace.record) ->
          Hashtbl.replace pids r.pid ();
          match r.event with
          | Span_begin { lane; _ } | Span_end { lane; _ } ->
              if lane + 1 > !max_lane then max_lane := lane + 1
          | _ -> ())
        sink)
    sinks;
  if timeline <> None then Hashtbl.replace pids Trace.engine_pid ();
  let stride = !max_lane in
  let sorted_pids =
    List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) pids [])
  in
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n"
  in
  List.iter
    (fun pid ->
      let name = if pid = Trace.engine_pid then "engine" else Printf.sprintf "proc %d" pid in
      sep ();
      process_name_row buf ~cpid:(chrome_pid pid) ~name)
    sorted_pids;
  List.iteri
    (fun g sink ->
      Trace.iter (chrome_record ~tid_base:(g * stride) buf sep) sink)
    sinks;
  (match timeline with
  | None -> ()
  | Some tl ->
      List.iter
        (fun (s : Metrics.sample) ->
          let ts_us = ts_us_of_ns s.Metrics.s_time_ns in
          List.iter
            (fun (name, v) ->
              sep ();
              Buffer.add_string buf "{\"name\":";
              Json.escape_to_buffer buf name;
              Buffer.add_string buf
                (Printf.sprintf ",\"ph\":\"C\",\"ts\":%s,\"pid\":%d,\"args\":{\"value\":"
                   ts_us (chrome_pid Trace.engine_pid));
              Json.to_buffer buf (Json.Float v);
              Buffer.add_string buf "}}")
            s.Metrics.s_values)
        (Metrics.timeline_samples tl));
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n"

let chrome_string ?timeline sinks =
  let buf = Buffer.create 4096 in
  chrome_to_buffer ?timeline buf sinks;
  Buffer.contents buf

let write_chrome ?timeline oc sinks =
  let buf = Buffer.create 4096 in
  chrome_to_buffer ?timeline buf sinks;
  Buffer.output_buffer oc buf

(* --- shard-window Gantt from Shard_stats -------------------------------- *)

(* Host-time Gantt of a sharded run: coordinator barrier work on pid 0
   (drain and fold slices), each shard's per-window busy time on pid
   s + 1, and a flow arrow per (src, dst) pair that exchanged mail
   across a barrier.  The time axis is a synthetic host-ns cursor —
   slices are laid end to end in execution order (drain, fold, then the
   window loop), with every shard's slice starting where the loop
   starts: the engine runs the shards one after another, so this draws
   the layout a parallel window loop would have, which is the
   serial/parallel structure the Amdahl analysis projects.
   Deterministic given the stats values, so hand-built stats golden
   cleanly. *)
let shard_chrome_to_buffer buf st =
  let k = Shard_stats.shards st in
  let n = Shard_stats.windows st in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n"
  in
  sep ();
  process_name_row buf ~cpid:0 ~name:"coordinator";
  for s = 0 to k - 1 do
    sep ();
    process_name_row buf ~cpid:(s + 1) ~name:(Printf.sprintf "shard %d" s)
  done;
  let slice ~name ~ts ~dur ~cpid ~args =
    sep ();
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":0,\"args\":{\"window\":%d"
         name (ts_us_of_ns ts) (ts_us_of_ns dur) cpid (fst args));
    add_args buf (snd args);
    Buffer.add_string buf "}}"
  in
  let cursor = ref 0 in
  let prev_par_start = ref 0 in
  let prev_busy = Array.make k 0 in
  for w = 0 to n - 1 do
    let drain = Shard_stats.drain_ns st w in
    let fold = Shard_stats.fold_ns st w in
    slice ~name:"barrier.drain" ~ts:!cursor ~dur:drain ~cpid:0
      ~args:
        ( w,
          [
            ("msgs", string_of_int (Shard_stats.mail_msgs st w));
            ("ints", string_of_int (Shard_stats.mail_ints st w));
          ] );
    cursor := !cursor + drain;
    slice ~name:"barrier.fold" ~ts:!cursor ~dur:fold ~cpid:0 ~args:(w, []);
    cursor := !cursor + fold;
    let par_start = !cursor in
    for s = 0 to k - 1 do
      slice ~name:"window" ~ts:par_start
        ~dur:(Shard_stats.busy_ns st w ~shard:s)
        ~cpid:(s + 1)
        ~args:
          ( w,
            [
              ("events", string_of_int (Shard_stats.events st w ~shard:s));
              ( "limit",
                Printf.sprintf "%S"
                  (Shard_stats.limit_to_string (Shard_stats.limit st w)) );
              ("start_ns", string_of_int (Shard_stats.start_ns st w));
              ("end_ns", string_of_int (Shard_stats.end_ns st w));
            ] )
    done;
    (* Mail drained at this barrier was posted during the previous
       window: arrow from the sender's previous slice to the receiver's
       current one. *)
    if w > 0 then
      for src = 0 to k - 1 do
        for dst = 0 to k - 1 do
          let msgs = Shard_stats.traffic st w ~src ~dst in
          if msgs > 0 then begin
            let flow = (((w * k) + src) * k) + dst in
            let args = [ ("msgs", string_of_int msgs) ] in
            chrome_flow_slice buf ~sep ~slice_name:"mail.out" ~phase:"s"
              ~ts_us:(ts_us_of_ns (!prev_par_start + prev_busy.(src)))
              ~cpid:(src + 1) ~tid:0 ~flow ~seq:w ~args;
            chrome_flow_slice buf ~sep ~slice_name:"mail.in" ~phase:"f"
              ~ts_us:(ts_us_of_ns par_start) ~cpid:(dst + 1) ~tid:0 ~flow
              ~seq:w ~args
          end
        done
      done;
    for s = 0 to k - 1 do
      prev_busy.(s) <- Shard_stats.busy_ns st w ~shard:s
    done;
    prev_par_start := par_start;
    cursor := !cursor + Shard_stats.par_ns st w
  done;
  let ep_drain = Shard_stats.epilogue_drain_ns st in
  let ep_fold = Shard_stats.epilogue_fold_ns st in
  if ep_drain > 0 || ep_fold > 0 then begin
    slice ~name:"barrier.drain" ~ts:!cursor ~dur:ep_drain ~cpid:0
      ~args:
        (n, [ ("msgs", string_of_int (Shard_stats.epilogue_mail_msgs st)) ]);
    cursor := !cursor + ep_drain;
    slice ~name:"barrier.fold" ~ts:!cursor ~dur:ep_fold ~cpid:0 ~args:(n, [])
  end;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n"

let shard_chrome_string st =
  let buf = Buffer.create 4096 in
  shard_chrome_to_buffer buf st;
  Buffer.contents buf

let write_shard_chrome oc st =
  let buf = Buffer.create 4096 in
  shard_chrome_to_buffer buf st;
  Buffer.output_buffer oc buf
