(* Chandy–Lamport consistent global snapshots.

   Appendix A of the paper lists "taking efficient consistent snapshots of
   a system" among the classic middleware uses of logical time; this is
   the canonical marker algorithm over FIFO channels.

   The middleware wraps application traffic: users send through
   [send_app], and both application messages and markers travel on one
   FIFO network.  When a snapshot is initiated, the initiator records its
   state and sends markers on all outgoing channels; every process, on its
   first marker, does the same; messages arriving on a channel after the
   local recording but before that channel's marker are exactly the
   in-flight messages of the recorded cut.  The library aggregates the
   result centrally (we own the simulation) and hands it to the
   [on_complete] callback once every process has recorded and every
   channel has been closed by its marker. *)

module Engine = Psn_sim.Engine
module Net = Psn_network.Net
module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics

let trace engine ~pid ev =
  match Engine.tracer engine with
  | Some s -> Trace.emit s ~time:(Engine.now engine) ~pid ev
  | None -> ()

type 'app msg =
  | App of 'app
  | Marker

type ('state, 'app) snapshot = {
  states : 'state array;
  channels : 'app list array array;  (* channels.(src).(dst): in flight *)
}

type ('state, 'app) t = {
  n : int;
  engine : Engine.t;
  c_records : Metrics.counter;
  c_completed : Metrics.counter;
  net : 'app msg Net.t;
  local_state : int -> 'state;
  apply : dst:int -> src:int -> 'app -> unit;
  mutable active : bool;
  recorded : bool array;
  snap_states : 'state option array;
  channel_open : bool array array;   (* [src][dst] still recording *)
  snap_channels : 'app list array array;  (* reused: rows cleared per round *)
  mutable open_channels : int;
  mutable on_complete : ('state, 'app) snapshot -> unit;
}

(* Process p records its local state and emits markers (CL rule). *)
let record t p =
  t.recorded.(p) <- true;
  Metrics.incr t.c_records;
  trace t.engine ~pid:p (Trace.Mark { name = "snapshot.record" });
  t.snap_states.(p) <- Some (t.local_state p);
  (* Start recording every incoming channel of p. *)
  for src = 0 to t.n - 1 do
    if src <> p then begin
      t.channel_open.(src).(p) <- true;
      t.open_channels <- t.open_channels + 1
    end
  done;
  for dst = 0 to t.n - 1 do
    if dst <> p then Net.send t.net ~src:p ~dst Marker
  done

let check_complete t =
  if
    t.active && t.open_channels = 0
    && Array.for_all (fun r -> r) t.recorded
  then begin
    t.active <- false;
    let states =
      Array.init t.n (fun i ->
          match t.snap_states.(i) with
          | Some s -> s
          | None -> assert false)
    in
    let channels = Array.map (Array.map List.rev) t.snap_channels in
    Metrics.incr t.c_completed;
    trace t.engine ~pid:Trace.engine_pid (Trace.Mark { name = "snapshot.complete" });
    (* Close the round span opened by [initiate]; it crosses engine
       events, hence the window lane. *)
    trace t.engine ~pid:Trace.engine_pid
      (Trace.Span_end { name = "snapshot.round"; lane = Trace.lane_window });
    t.on_complete { states; channels }
  end

let handle t ~dst ~src = function
  | App payload ->
      if t.active && t.recorded.(dst) && t.channel_open.(src).(dst) then
        t.snap_channels.(src).(dst) <- payload :: t.snap_channels.(src).(dst);
      t.apply ~dst ~src payload
  | Marker ->
      if not t.recorded.(dst) then record t dst;
      if t.channel_open.(src).(dst) then begin
        t.channel_open.(src).(dst) <- false;
        t.open_channels <- t.open_channels - 1;
        check_complete t
      end

let create engine ~n ~delay ~local_state ~apply () =
  if n < 2 then invalid_arg "Snapshot.create: need at least two processes";
  let net =
    Net.create ~fifo:true ~payload_words:(fun _ -> 1) ~label:"snapshot" engine
      ~n ~delay
  in
  let m = Engine.metrics engine in
  let t =
    {
      n;
      engine;
      c_records = Metrics.counter m "snapshot.records";
      c_completed = Metrics.counter m "snapshot.completed";
      net;
      local_state;
      apply;
      active = false;
      recorded = Array.make n false;
      snap_states = Array.make n None;
      channel_open = Array.make_matrix n n false;
      snap_channels = Array.make_matrix n n [];
      open_channels = 0;
      on_complete = ignore;
    }
  in
  for dst = 0 to n - 1 do
    Net.set_handler net dst (fun ~src msg -> handle t ~dst ~src msg)
  done;
  t

let send_app t ~src ~dst payload = Net.send t.net ~src ~dst (App payload)

let on_complete t f = t.on_complete <- f

let initiate t ~by =
  if by < 0 || by >= t.n then invalid_arg "Snapshot.initiate: out of range";
  if t.active then invalid_arg "Snapshot.initiate: snapshot already running";
  t.active <- true;
  trace t.engine ~pid:Trace.engine_pid
    (Trace.Span_begin { name = "snapshot.round"; lane = Trace.lane_window });
  Array.fill t.recorded 0 t.n false;
  Array.fill t.snap_states 0 t.n None;
  (* Buffers are reused across rounds: [check_complete] copied the lists
     out, so clearing the rows in place replaces the per-round matrix
     allocation. *)
  Array.iter (fun row -> Array.fill row 0 t.n []) t.snap_channels;
  Array.iter (fun row -> Array.fill row 0 t.n false) t.channel_open;
  t.open_channels <- 0;
  record t by

let messages_sent t = Net.sent t.net
