(* Streaming causal trace analytics.

   One pass over the record stream, in emission order.  The state is a
   set of fixed-shape tables:

   - a flow-edge ring: flow ids are allocated densely in send order, so
     the ring is indexed by [flow mod cap] between [e_lo] (oldest flow
     still held) and [e_hi] (next expected).  An edge retires when both
     endpoints are seen (deliver or drop) or, with a horizon, when
     sim-time moves past [send + horizon]; the head then advances, so
     the ring span — the analyzer's memory — is bounded by the horizon
     rather than the run length.
   - log-bucketed latency histograms (exact below 8 ns, then power-of-two
     octaves split into 4 linear sub-buckets: resolution within 12.5%),
     one per (src, dst, kind) link plus one overall, and one per
     (span name, lane).  Fixed int arrays, allocation-free to observe.
   - a recent-delivery ring for the checker pid: the candidate pool for
     critical paths, expired on the same horizon.
   - per-kind traffic totals with in-flight high-watermarks, and drop
     counts attributed to links.

   Critical paths: a [Detector_occurrence] carries its sense-to-detect
   window, so the trigger's sense time is [detect - window].  The
   trigger chain is sense -> send (same engine event) -> deliver at the
   checker -> hold-back queue -> flush handler -> occurrence.  Among
   recent checker deliveries whose send time equals the sense time, the
   binding constraint — the critical path — is the latest-arriving one
   (max deliver time, then max flow id, so the choice is deterministic).
   Hops: emit = send - sense, transmit = deliver - send, handler =
   detect - (innermost open sync-lane span begin, the flush), queue =
   the remainder; each clamped non-negative, summing to at most the
   window.  An occurrence with no such delivery (the checker's own
   update, or a trigger whose direct message was dropped or expired) is
   reported unresolved, with the window split into queue + handler.

   Everything here is a deterministic function of (record stream,
   horizon), so post-hoc and online feeding produce byte-identical
   reports at the same horizon. *)

module Table = Psn_util.Table

(* --- log-bucketed histograms ------------------------------------------- *)

let n_buckets = 248

(* Index of the highest set bit; [v] must be positive. *)
let msb v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then begin r := !r + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin r := !r + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin r := !r + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin r := !r + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin r := !r + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then incr r;
  !r

let bucket_of_ns v =
  if v < 8 then (if v < 0 then 0 else v)
  else
    let o = msb v in
    (* 4 sub-buckets per octave: the next two bits below the msb. *)
    let sub = (v lsr (o - 2)) land 3 in
    8 + ((o - 3) * 4) + sub

let bucket_lo idx =
  if idx < 8 then idx
  else
    let o = 3 + ((idx - 8) / 4) and sub = (idx - 8) mod 4 in
    (1 lsl o) + (sub lsl (o - 2))

type hist = {
  counts : int array;
  mutable h_n : int;
  mutable h_sum : int;
  mutable h_max : int;
}

let hist_create () =
  { counts = Array.make n_buckets 0; h_n = 0; h_sum = 0; h_max = 0 }

let observe h v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of_ns v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v

(* Lower bound of the bucket holding rank ceil(pct% of n); the exact max
   for the 100th percentile. *)
let hist_quantile h pct =
  if h.h_n = 0 then 0
  else if pct >= 100 then h.h_max
  else begin
    let target = max 1 (((h.h_n * pct) + 99) / 100) in
    let rec go i acc =
      if i >= n_buckets then h.h_max
      else
        let acc = acc + h.counts.(i) in
        if acc >= target then bucket_lo i else go (i + 1) acc
    in
    go 0 0
  end

(* --- analyzer state ----------------------------------------------------- *)

type quantiles = { q50 : int; q90 : int; q99 : int; q_max : int }

type hop = { h_label : string; h_ns : int }

type path = {
  p_seq : int;
  p_detect_ns : int;
  p_verdict : string;
  p_window_ns : int;
  p_src : int;
  p_flow : int;
  p_hops : hop list;
}

let dummy_path =
  { p_seq = 0; p_detect_ns = 0; p_verdict = ""; p_window_ns = 0; p_src = -1;
    p_flow = -1; p_hops = [] }

type link = {
  l_src : int;
  l_dst : int;
  l_kind : int;
  l_hist : hist;
  mutable l_drops : int;
}

(* Edge states in the flow ring. *)
let st_open = 0
let st_delivered = 1
let st_dropped = 2
let st_absent = 3 (* gap in the id space, or expired by the horizon *)

(* The process whose occurrences get critical paths: the linearizing
   detectors all check at process 0. *)
let checker_pid = 0

(* How many of the most recent critical paths the report keeps verbatim;
   aggregates cover all. *)
let keep_paths = 32

type t = {
  horizon : int; (* max_int = unbounded *)
  (* totals *)
  mutable records : int;
  mutable sends : int;
  mutable delivers : int;
  mutable drops : int;
  mutable late : int; (* endpoint for an edge not (or no longer) open *)
  (* message kinds, interned *)
  kind_ids : (string, int) Hashtbl.t;
  mutable kind_names : string array;
  mutable kinds : int;
  mutable k_sent : int array;
  mutable k_delivered : int array;
  mutable k_dropped : int array;
  mutable k_words : int array;
  mutable k_inflight : int array;
  mutable k_peak : int array;
  (* links *)
  links : (int, link) Hashtbl.t;
  delivery : hist;
  (* spans *)
  span_ids : (string, int) Hashtbl.t;
  mutable span_names : string array;
  mutable span_kinds : int;
  span_stats : (int, hist) Hashtbl.t; (* key = name_id * 4 + lane *)
  open_spans : (int, (int * int) list) Hashtbl.t;
      (* (pid+1)*4 + lane -> (name_id, begin time) stack *)
  (* flow-edge ring; slot = flow mod e_cap *)
  mutable e_cap : int;
  mutable e_lo : int;
  mutable e_hi : int;
  mutable e_send : int array;
  mutable e_src : int array;
  mutable e_dst : int array;
  mutable e_kind : int array;
  mutable e_state : int array;
  mutable open_count : int;
  mutable peak_open : int;
  mutable peak_ring : int;
  mutable matched : int;
  mutable expired : int;
  (* recent deliveries to the checker *)
  mutable d_cap : int;
  mutable d_lo : int;
  mutable d_hi : int;
  mutable d_time : int array;
  mutable d_sendt : int array;
  mutable d_src : int array;
  mutable d_flow : int array;
  mutable d_peak : int;
  (* occurrences / critical paths *)
  mutable occ : int;
  mutable occ_resolved : int;
  mutable sum_emit : int;
  mutable sum_transmit : int;
  mutable sum_queue : int;
  mutable sum_handler : int;
  mutable sum_path : int;
  mutable max_path : int;
  path_ring : path array;
  mutable path_n : int;
  (* streaming-lattice slab occupancy (Lattice_commit records) *)
  mutable lat_commits : int;
  mutable lat_level : int;
  mutable lat_committed : int;
  mutable lat_live_last : int;
  mutable lat_live_peak : int;
}

let create ?horizon_ns () =
  (match horizon_ns with
  | Some h when h <= 0 ->
      invalid_arg "Analyze.create: horizon_ns must be positive"
  | _ -> ());
  {
    horizon = (match horizon_ns with Some h -> h | None -> max_int);
    records = 0;
    sends = 0;
    delivers = 0;
    drops = 0;
    late = 0;
    kind_ids = Hashtbl.create 8;
    kind_names = Array.make 4 "";
    kinds = 0;
    k_sent = Array.make 4 0;
    k_delivered = Array.make 4 0;
    k_dropped = Array.make 4 0;
    k_words = Array.make 4 0;
    k_inflight = Array.make 4 0;
    k_peak = Array.make 4 0;
    links = Hashtbl.create 32;
    delivery = hist_create ();
    span_ids = Hashtbl.create 8;
    span_names = Array.make 4 "";
    span_kinds = 0;
    span_stats = Hashtbl.create 16;
    open_spans = Hashtbl.create 16;
    e_cap = 16;
    e_lo = 0;
    e_hi = 0;
    e_send = Array.make 16 0;
    e_src = Array.make 16 0;
    e_dst = Array.make 16 0;
    e_kind = Array.make 16 0;
    e_state = Array.make 16 st_absent;
    open_count = 0;
    peak_open = 0;
    peak_ring = 0;
    matched = 0;
    expired = 0;
    d_cap = 16;
    d_lo = 0;
    d_hi = 0;
    d_time = Array.make 16 0;
    d_sendt = Array.make 16 0;
    d_src = Array.make 16 0;
    d_flow = Array.make 16 0;
    d_peak = 0;
    occ = 0;
    occ_resolved = 0;
    sum_emit = 0;
    sum_transmit = 0;
    sum_queue = 0;
    sum_handler = 0;
    sum_path = 0;
    max_path = 0;
    path_ring = Array.make keep_paths dummy_path;
    path_n = 0;
    lat_commits = 0;
    lat_level = 0;
    lat_committed = 0;
    lat_live_last = 0;
    lat_live_peak = 0;
  }

(* --- interning ---------------------------------------------------------- *)

let grow_int a n =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 n;
  b

let kind_id t name =
  match Hashtbl.find_opt t.kind_ids name with
  | Some id -> id
  | None ->
      let id = t.kinds in
      if id = Array.length t.kind_names then begin
        let names = Array.make (2 * id) "" in
        Array.blit t.kind_names 0 names 0 id;
        t.kind_names <- names;
        t.k_sent <- grow_int t.k_sent id;
        t.k_delivered <- grow_int t.k_delivered id;
        t.k_dropped <- grow_int t.k_dropped id;
        t.k_words <- grow_int t.k_words id;
        t.k_inflight <- grow_int t.k_inflight id;
        t.k_peak <- grow_int t.k_peak id
      end;
      t.kind_names.(id) <- name;
      t.kinds <- id + 1;
      Hashtbl.add t.kind_ids name id;
      id

let span_id t name =
  match Hashtbl.find_opt t.span_ids name with
  | Some id -> id
  | None ->
      let id = t.span_kinds in
      if id = Array.length t.span_names then begin
        let names = Array.make (2 * id) "" in
        Array.blit t.span_names 0 names 0 id;
        t.span_names <- names
      end;
      t.span_names.(id) <- name;
      t.span_kinds <- id + 1;
      Hashtbl.add t.span_ids name id;
      id

(* 20-bit src/dst, 6-bit kind: collision-free for any run this simulator
   can hold. *)
let link_key ~src ~dst ~kind =
  ((src land 0xFFFFF) lsl 26) lor ((dst land 0xFFFFF) lsl 6) lor (kind land 0x3F)

let link t ~src ~dst ~kind =
  let key = link_key ~src ~dst ~kind in
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
      let l = { l_src = src; l_dst = dst; l_kind = kind;
                l_hist = hist_create (); l_drops = 0 } in
      Hashtbl.add t.links key l;
      l

let span_key pid lane = ((pid + 1) * 4) + (lane land 3)

(* --- flow-edge ring ------------------------------------------------------ *)

let edge_grow t need =
  let cap = ref t.e_cap in
  while !cap < need do cap := !cap * 2 done;
  let cap = !cap in
  let send = Array.make cap 0 and src = Array.make cap 0
  and dst = Array.make cap 0 and kind = Array.make cap 0
  and state = Array.make cap st_absent in
  for f = t.e_lo to t.e_hi - 1 do
    let o = f mod t.e_cap and n = f mod cap in
    send.(n) <- t.e_send.(o);
    src.(n) <- t.e_src.(o);
    dst.(n) <- t.e_dst.(o);
    kind.(n) <- t.e_kind.(o);
    state.(n) <- t.e_state.(o)
  done;
  t.e_cap <- cap;
  t.e_send <- send;
  t.e_src <- src;
  t.e_dst <- dst;
  t.e_kind <- kind;
  t.e_state <- state

let edge_push t ~flow ~send_time ~src ~dst ~kind =
  if flow < t.e_lo then t.late <- t.late + 1
  else begin
    if t.e_hi = t.e_lo then begin
      t.e_lo <- flow;
      t.e_hi <- flow
    end;
    if flow + 1 - t.e_lo > t.e_cap then edge_grow t (flow + 1 - t.e_lo);
    (* Gaps in the id space (a filtered trace) stay absent slots. *)
    while t.e_hi < flow do
      t.e_state.(t.e_hi mod t.e_cap) <- st_absent;
      t.e_hi <- t.e_hi + 1
    done;
    let s = flow mod t.e_cap in
    t.e_send.(s) <- send_time;
    t.e_src.(s) <- src;
    t.e_dst.(s) <- dst;
    t.e_kind.(s) <- kind;
    t.e_state.(s) <- st_open;
    if flow >= t.e_hi then t.e_hi <- flow + 1;
    t.open_count <- t.open_count + 1;
    if t.open_count > t.peak_open then t.peak_open <- t.open_count;
    let span = t.e_hi - t.e_lo in
    if span > t.peak_ring then t.peak_ring <- span
  end

(* Close an edge on its deliver/drop; [Some send_time] when it was open. *)
let edge_close t ~flow ~st =
  if flow >= t.e_lo && flow < t.e_hi then begin
    let s = flow mod t.e_cap in
    if t.e_state.(s) = st_open then begin
      t.e_state.(s) <- st;
      t.open_count <- t.open_count - 1;
      t.matched <- t.matched + 1;
      Some t.e_send.(s)
    end
    else begin
      t.late <- t.late + 1;
      None
    end
  end
  else begin
    t.late <- t.late + 1;
    None
  end

(* Advance the ring head over retired slots; with a horizon, expire open
   edges whose send slid past it, and age the checker-delivery window. *)
let retire t ~now =
  let continue = ref true in
  while !continue && t.e_lo < t.e_hi do
    let s = t.e_lo mod t.e_cap in
    if t.e_state.(s) <> st_open then t.e_lo <- t.e_lo + 1
    else if t.horizon <> max_int && t.e_send.(s) + t.horizon < now then begin
      t.e_state.(s) <- st_absent;
      t.expired <- t.expired + 1;
      t.open_count <- t.open_count - 1;
      t.e_lo <- t.e_lo + 1
    end
    else continue := false
  done;
  if t.horizon <> max_int then
    while t.d_lo < t.d_hi && t.d_time.(t.d_lo mod t.d_cap) + t.horizon < now do
      t.d_lo <- t.d_lo + 1
    done

(* --- checker-delivery ring ---------------------------------------------- *)

let deliver_push t ~time ~send_time ~src ~flow =
  if t.d_hi - t.d_lo = t.d_cap then begin
    let cap = 2 * t.d_cap in
    let tm = Array.make cap 0 and sd = Array.make cap 0
    and sr = Array.make cap 0 and fl = Array.make cap 0 in
    for i = t.d_lo to t.d_hi - 1 do
      let o = i mod t.d_cap and n = i mod cap in
      tm.(n) <- t.d_time.(o);
      sd.(n) <- t.d_sendt.(o);
      sr.(n) <- t.d_src.(o);
      fl.(n) <- t.d_flow.(o)
    done;
    t.d_cap <- cap;
    t.d_time <- tm;
    t.d_sendt <- sd;
    t.d_src <- sr;
    t.d_flow <- fl
  end;
  let s = t.d_hi mod t.d_cap in
  t.d_time.(s) <- time;
  t.d_sendt.(s) <- send_time;
  t.d_src.(s) <- src;
  t.d_flow.(s) <- flow;
  t.d_hi <- t.d_hi + 1;
  if t.d_hi - t.d_lo > t.d_peak then t.d_peak <- t.d_hi - t.d_lo

(* --- occurrences --------------------------------------------------------- *)

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let occurrence t (r : Trace.record) verdict window =
  t.occ <- t.occ + 1;
  let detect = r.time in
  let window = if window < 0 then 0 else window in
  let sense = detect - window in
  let flush_begin =
    match Hashtbl.find_opt t.open_spans (span_key r.pid Trace.lane_sync) with
    | Some ((_, tb) :: _) -> tb
    | Some [] | None -> detect
  in
  let handler = clamp 0 window (detect - flush_begin) in
  (* The binding trigger chain: latest-arriving checker delivery whose
     send coincides with the occurrence's sense instant. *)
  let best = ref (-1) in
  if r.pid = checker_pid then begin
    (* Deliveries arrive in non-decreasing time and a delivery never
       precedes its send, so entries older than [sense] cannot match:
       scan backward and stop there.  The scan is bounded by the
       occurrence window, not the run length. *)
    let i = ref (t.d_hi - 1) in
    while !i >= t.d_lo && t.d_time.(!i mod t.d_cap) >= sense do
      let s = !i mod t.d_cap in
      if t.d_sendt.(s) = sense && t.d_time.(s) <= detect then begin
        if !best < 0 then best := !i
        else begin
          let b = !best mod t.d_cap in
          if
            t.d_time.(s) > t.d_time.(b)
            || (t.d_time.(s) = t.d_time.(b) && t.d_flow.(s) > t.d_flow.(b))
          then best := !i
        end
      end;
      decr i
    done
  end;
  let src, flow, emit_ns, transmit, queue =
    if !best >= 0 then begin
      t.occ_resolved <- t.occ_resolved + 1;
      let s = !best mod t.d_cap in
      let transmit = clamp 0 window (t.d_time.(s) - sense) in
      let queue = max 0 (window - transmit - handler) in
      (t.d_src.(s), t.d_flow.(s), 0, transmit, queue)
    end
    else (-1, -1, 0, 0, max 0 (window - handler))
  in
  let total = emit_ns + transmit + queue + handler in
  t.sum_emit <- t.sum_emit + emit_ns;
  t.sum_transmit <- t.sum_transmit + transmit;
  t.sum_queue <- t.sum_queue + queue;
  t.sum_handler <- t.sum_handler + handler;
  t.sum_path <- t.sum_path + total;
  if total > t.max_path then t.max_path <- total;
  let p =
    {
      p_seq = r.seq;
      p_detect_ns = detect;
      p_verdict = verdict;
      p_window_ns = window;
      p_src = src;
      p_flow = flow;
      p_hops =
        [
          { h_label = "emit"; h_ns = emit_ns };
          { h_label = "transmit"; h_ns = transmit };
          { h_label = "queue"; h_ns = queue };
          { h_label = "handler"; h_ns = handler };
        ];
    }
  in
  t.path_ring.(t.path_n mod keep_paths) <- p;
  t.path_n <- t.path_n + 1

(* --- feed ---------------------------------------------------------------- *)

let feed t (r : Trace.record) =
  t.records <- t.records + 1;
  retire t ~now:r.time;
  match r.event with
  | Trace.Net_send { src; dst; words; kind; flow } ->
      let k = kind_id t kind in
      t.sends <- t.sends + 1;
      t.k_sent.(k) <- t.k_sent.(k) + 1;
      t.k_words.(k) <- t.k_words.(k) + words;
      t.k_inflight.(k) <- t.k_inflight.(k) + 1;
      if t.k_inflight.(k) > t.k_peak.(k) then t.k_peak.(k) <- t.k_inflight.(k);
      edge_push t ~flow ~send_time:r.time ~src ~dst ~kind:k
  | Trace.Net_deliver { src; dst; kind; flow } -> (
      let k = kind_id t kind in
      t.delivers <- t.delivers + 1;
      t.k_delivered.(k) <- t.k_delivered.(k) + 1;
      t.k_inflight.(k) <- t.k_inflight.(k) - 1;
      match edge_close t ~flow ~st:st_delivered with
      | Some send_time ->
          let lat = r.time - send_time in
          observe t.delivery lat;
          observe (link t ~src ~dst ~kind:k).l_hist lat;
          if dst = checker_pid then
            deliver_push t ~time:r.time ~send_time ~src ~flow
      | None -> ())
  | Trace.Net_drop { src; dst; kind; flow } ->
      let k = kind_id t kind in
      t.drops <- t.drops + 1;
      t.k_dropped.(k) <- t.k_dropped.(k) + 1;
      t.k_inflight.(k) <- t.k_inflight.(k) - 1;
      (link t ~src ~dst ~kind:k).l_drops <-
        (link t ~src ~dst ~kind:k).l_drops + 1;
      ignore (edge_close t ~flow ~st:st_dropped)
  | Trace.Span_begin { name; lane } ->
      let id = span_id t name in
      let key = span_key r.pid lane in
      let stack =
        match Hashtbl.find_opt t.open_spans key with Some s -> s | None -> []
      in
      Hashtbl.replace t.open_spans key ((id, r.time) :: stack)
  | Trace.Span_end { name; lane } -> (
      let id = span_id t name in
      let key = span_key r.pid lane in
      match Hashtbl.find_opt t.open_spans key with
      | Some ((top, tb) :: rest) when top = id ->
          Hashtbl.replace t.open_spans key rest;
          let skey = (id * 4) + (lane land 3) in
          let h =
            match Hashtbl.find_opt t.span_stats skey with
            | Some h -> h
            | None ->
                let h = hist_create () in
                Hashtbl.add t.span_stats skey h;
                h
          in
          observe h (r.time - tb)
      | _ -> t.late <- t.late + 1 (* end without a matching begin *))
  | Trace.Detector_occurrence { verdict; window_ns } ->
      occurrence t r verdict window_ns
  | Trace.Lattice_commit { level; live; committed } ->
      t.lat_commits <- t.lat_commits + 1;
      t.lat_level <- level;
      t.lat_committed <- committed;
      t.lat_live_last <- live;
      if live > t.lat_live_peak then t.lat_live_peak <- live
  | Trace.Engine_schedule _ | Trace.Engine_fire | Trace.Engine_cancel
  | Trace.Clock_tick _ | Trace.Clock_receive _ | Trace.Clock_strobe _
  | Trace.Detector_update _ | Trace.Mark _ ->
      ()

let feed_sink t sink = Trace.iter (feed t) sink

(* --- accessors ----------------------------------------------------------- *)

let delivery_quantiles t =
  if t.delivery.h_n = 0 then None
  else
    Some
      {
        q50 = hist_quantile t.delivery 50;
        q90 = hist_quantile t.delivery 90;
        q99 = hist_quantile t.delivery 99;
        q_max = t.delivery.h_max;
      }

let paths t =
  let n = min t.path_n keep_paths in
  List.init n (fun i ->
      t.path_ring.((t.path_n - n + i) mod keep_paths))

let occurrences t = t.occ
let resolved t = t.occ_resolved

let mean_critical_ns t =
  if t.occ = 0 then 0.0 else float_of_int t.sum_path /. float_of_int t.occ

let open_edges t = t.open_count
let peak_open_edges t = t.peak_open
let expired_edges t = t.expired
let retired_edges t = t.matched
let lattice_commits t = t.lat_commits
let lattice_level t = t.lat_level
let lattice_committed t = t.lat_committed
let peak_live_cuts t = t.lat_live_peak

(* --- reports ------------------------------------------------------------- *)

let ms ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e6)

(* Links sorted largest-first with a deterministic tie-break, truncated
   to [top]. *)
let sorted_links t ~top =
  let all = Hashtbl.fold (fun _ l acc -> l :: acc) t.links [] in
  let key l = (t.kind_names.(l.l_kind), l.l_src, l.l_dst) in
  let all =
    List.sort
      (fun a b ->
        let c = compare (b.l_hist.h_n + b.l_drops) (a.l_hist.h_n + a.l_drops) in
        if c <> 0 then c else compare (key a) (key b))
      all
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  (take top all, max 0 (List.length all - top))

let sorted_spans t =
  let all =
    Hashtbl.fold
      (fun key h acc -> (t.span_names.(key / 4), key land 3, h) :: acc)
      t.span_stats []
  in
  List.sort compare all

let sorted_kinds t =
  List.sort compare (List.init t.kinds (fun k -> (t.kind_names.(k), k)))

let pct_of ~total part =
  if total = 0 then "0.0%"
  else Printf.sprintf "%.1f%%" (100.0 *. float_of_int part /. float_of_int total)

let horizon_text t =
  if t.horizon = max_int then "none"
  else Printf.sprintf "%s ms" (ms t.horizon)

let render ?(top = 16) t =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "== trace analytics ==\n";
  pf "records %d | sends %d | delivers %d | drops %d | occurrences %d (%d resolved)\n"
    t.records t.sends t.delivers t.drops t.occ t.occ_resolved;
  pf "retirement horizon: %s\n\n" (horizon_text t);
  (match delivery_quantiles t with
  | None -> pf "delivery latency: no deliveries\n"
  | Some q ->
      pf "delivery latency ms: p50 %s | p90 %s | p99 %s | max %s (n=%d)\n"
        (ms q.q50) (ms q.q90) (ms q.q99) (ms q.q_max) t.delivery.h_n);
  let links, more = sorted_links t ~top in
  if links <> [] then begin
    pf "\n-- delivery latency by link --\n";
    let rows =
      List.map
        (fun l ->
          [
            Printf.sprintf "%d->%d" l.l_src l.l_dst;
            t.kind_names.(l.l_kind);
            string_of_int l.l_hist.h_n;
            ms (hist_quantile l.l_hist 50);
            ms (hist_quantile l.l_hist 99);
            ms l.l_hist.h_max;
            string_of_int l.l_drops;
          ])
        links
    in
    Buffer.add_string buf
      (Table.render
         ~headers:[ "link"; "kind"; "n"; "p50 ms"; "p99 ms"; "max ms"; "drops" ]
         ~rows ());
    if more > 0 then pf "(%d more links)\n" more
  end;
  let spans = sorted_spans t in
  if spans <> [] then begin
    pf "\n-- span durations --\n";
    let rows =
      List.map
        (fun (name, lane, h) ->
          [
            name;
            string_of_int lane;
            string_of_int h.h_n;
            ms (hist_quantile h 50);
            ms (hist_quantile h 99);
            ms h.h_max;
          ])
        spans
    in
    Buffer.add_string buf
      (Table.render
         ~headers:[ "span"; "lane"; "n"; "p50 ms"; "p99 ms"; "max ms" ]
         ~rows ())
  end;
  if t.kinds > 0 then begin
    pf "\n-- traffic by kind --\n";
    let rows =
      List.map
        (fun (name, k) ->
          [
            name;
            string_of_int t.k_sent.(k);
            string_of_int t.k_delivered.(k);
            string_of_int t.k_dropped.(k);
            string_of_int t.k_words.(k);
            string_of_int t.k_peak.(k);
          ])
        (sorted_kinds t)
    in
    Buffer.add_string buf
      (Table.render
         ~headers:[ "kind"; "sent"; "delivered"; "dropped"; "words"; "peak in-flight" ]
         ~rows ())
  end;
  if t.path_n > 0 then begin
    let ps = paths t in
    pf "\n-- critical paths (last %d of %d) --\n" (List.length ps) t.path_n;
    let rows =
      List.mapi
        (fun i p ->
          let hop label =
            match List.find_opt (fun h -> h.h_label = label) p.p_hops with
            | Some h -> ms h.h_ns
            | None -> "-"
          in
          [
            string_of_int (t.path_n - List.length ps + i);
            ms p.p_detect_ns;
            p.p_verdict;
            ms p.p_window_ns;
            (if p.p_src < 0 then "local" else string_of_int p.p_src);
            (if p.p_flow < 0 then "-" else string_of_int p.p_flow);
            hop "emit";
            hop "transmit";
            hop "queue";
            hop "handler";
          ])
        ps
    in
    Buffer.add_string buf
      (Table.render
         ~headers:
           [ "#"; "t ms"; "verdict"; "window ms"; "src"; "flow"; "emit";
             "transmit"; "queue"; "handler" ]
         ~rows ());
    pf "attribution: emit %s | transmit %s | queue %s | handler %s (mean path %s ms, max %s ms)\n"
      (pct_of ~total:t.sum_path t.sum_emit)
      (pct_of ~total:t.sum_path t.sum_transmit)
      (pct_of ~total:t.sum_path t.sum_queue)
      (pct_of ~total:t.sum_path t.sum_handler)
      (Printf.sprintf "%.3f" (mean_critical_ns t /. 1e6))
      (ms t.max_path)
  end;
  if t.lat_commits > 0 then begin
    pf "\n-- streaming lattice --\n";
    pf
      "commits %d | committed level %d | committed cuts %d | live cuts %d \
       (peak %d)\n"
      t.lat_commits t.lat_level t.lat_committed t.lat_live_last
      t.lat_live_peak
  end;
  pf "\n-- analyzer --\n";
  pf "flow edges: %d retired by match, %d expired by horizon, %d open, %d late\n"
    t.matched t.expired t.open_count t.late;
  pf "peak open edges %d | peak edge-ring span %d | peak delivery window %d\n"
    t.peak_open t.peak_ring t.d_peak;
  Buffer.contents buf

let to_json ?(top = 16) t =
  let open Json in
  let q_fields h =
    [
      ("n", Int h.h_n);
      ("p50_ns", Int (hist_quantile h 50));
      ("p90_ns", Int (hist_quantile h 90));
      ("p99_ns", Int (hist_quantile h 99));
      ("max_ns", Int h.h_max);
      ("sum_ns", Int h.h_sum);
    ]
  in
  let links, _ = sorted_links t ~top in
  let doc =
      [
        ("schema", Str "psn-analyze/1");
        ( "horizon_ns",
          if t.horizon = max_int then Null else Int t.horizon );
        ( "totals",
          Obj
            [
              ("records", Int t.records);
              ("sends", Int t.sends);
              ("delivers", Int t.delivers);
              ("drops", Int t.drops);
              ("occurrences", Int t.occ);
              ("resolved", Int t.occ_resolved);
            ] );
        ( "delivery",
          if t.delivery.h_n = 0 then Null else Obj (q_fields t.delivery) );
        ( "links",
          List
            (List.map
               (fun l ->
                 Obj
                   ([
                      ("src", Int l.l_src);
                      ("dst", Int l.l_dst);
                      ("kind", Str t.kind_names.(l.l_kind));
                      ("drops", Int l.l_drops);
                    ]
                   @ q_fields l.l_hist))
               links) );
        ( "spans",
          List
            (List.map
               (fun (name, lane, h) ->
                 Obj ([ ("name", Str name); ("lane", Int lane) ] @ q_fields h))
               (sorted_spans t)) );
        ( "kinds",
          List
            (List.map
               (fun (name, k) ->
                 Obj
                   [
                     ("kind", Str name);
                     ("sent", Int t.k_sent.(k));
                     ("delivered", Int t.k_delivered.(k));
                     ("dropped", Int t.k_dropped.(k));
                     ("words", Int t.k_words.(k));
                     ("peak_in_flight", Int t.k_peak.(k));
                   ])
               (sorted_kinds t)) );
        ( "paths",
          List
            (List.map
               (fun p ->
                 Obj
                   [
                     ("seq", Int p.p_seq);
                     ("t_ns", Int p.p_detect_ns);
                     ("verdict", Str p.p_verdict);
                     ("window_ns", Int p.p_window_ns);
                     ("src", Int p.p_src);
                     ("flow", Int p.p_flow);
                     ( "hops",
                       Obj
                         (List.map
                            (fun h -> (h.h_label ^ "_ns", Int h.h_ns))
                            p.p_hops) );
                   ])
               (paths t)) );
        ( "attribution",
          Obj
            [
              ("emit_ns", Int t.sum_emit);
              ("transmit_ns", Int t.sum_transmit);
              ("queue_ns", Int t.sum_queue);
              ("handler_ns", Int t.sum_handler);
              ("total_ns", Int t.sum_path);
              ("max_path_ns", Int t.max_path);
            ] );
        ( "analyzer",
          Obj
            [
              ("matched_edges", Int t.matched);
              ("expired_edges", Int t.expired);
              ("open_edges", Int t.open_count);
              ("late_events", Int t.late);
              ("peak_open_edges", Int t.peak_open);
              ("peak_ring_span", Int t.peak_ring);
              ("peak_delivery_window", Int t.d_peak);
            ] );
      ]
      (* The lattice section appears only when the run carried
         [Lattice_commit] records, so analyses of pre-streaming traces
         keep their historical bytes. *)
      @ (if t.lat_commits = 0 then []
         else
           [
             ( "lattice",
               Obj
                 [
                   ("commits", Int t.lat_commits);
                   ("committed_level", Int t.lat_level);
                   ("committed_cuts", Int t.lat_committed);
                   ("live_cuts", Int t.lat_live_last);
                   ("peak_live_cuts", Int t.lat_live_peak);
                 ] );
           ])
  in
  to_string (Obj doc)

(* --- sharded-run analysis ---------------------------------------------- *)

(* Everything below reads a [Shard_stats.t] — host-time counters the
   sharded engine recorded at its barriers — and derives three answers:
   where wall time goes (window loop / drain / fold / other), how
   unevenly the shards are loaded, and what speedup C cores would buy
   (an Amdahl projection from the measured per-window busy profile).
   Windows run inline, one shard after another, so the measured run is
   the one-core case and the curve is what a parallel window loop
   would have to beat.

   The projection model: serial work (coordinator drain + fold +
   unattributed time + loop overhead) does not scale; each window's
   loop takes at least its critical path [max_s busy] and at least its
   total busy time divided over C cores.  T(1) under this model is
   exactly serial + total busy, so the curve starts at 1.0 by
   construction. *)

type shard_row = {
  sh_events : int;
  sh_busy_ns : int;
  sh_wait_ns : int;  (* Σ over windows of (par_ns - busy), clamped:
                         the other shards' turns *)
  sh_sent : int;
  sh_recv : int;
}

type sharded_report = {
  sr_shards : int;
  sr_lookahead_ns : int;
  sr_windows : int;
  sr_events : int;
  sr_limit_lookahead : int;
  sr_limit_queue : int;
  sr_limit_horizon : int;
  sr_wall_ns : int;  (* measured run wall; T(1) when unmeasured *)
  sr_par_ns : int;  (* Σ window loops *)
  sr_drain_ns : int;  (* coordinator drains, epilogue included *)
  sr_fold_ns : int;  (* next-window folds, epilogue included *)
  sr_other_ns : int;  (* wall - window loops - drain - fold, clamped *)
  sr_busy_ns : int;  (* Σ over shards and windows *)
  sr_critical_ns : int;  (* Σ over windows of max_s busy *)
  sr_dispatch_ns : int;  (* Σ over windows of (par - Σ busy), clamped:
                             loop overhead *)
  sr_parallel_frac : float;
  sr_serial_frac : float;
  sr_imbalance_events : float;
  sr_imbalance_busy : float;
  sr_cross_msgs : int;
  sr_pending : int;
  sr_peak_mail_ints : int;
  sr_per_shard : shard_row array;
  sr_amdahl : (int * float) array;  (* cores, projected speedup *)
  sr_amdahl_limit : float;  (* C -> infinity asymptote *)
}

let sharded st =
  let k = Shard_stats.shards st in
  let n = Shard_stats.windows st in
  let limits = [| 0; 0; 0 |] in
  let drain = ref (Shard_stats.epilogue_drain_ns st) in
  let fold = ref (Shard_stats.epilogue_fold_ns st) in
  let par = ref 0 in
  let busy_tot = ref 0 in
  let crit = ref 0 in
  let dispatch = ref 0 in
  let sum_max_e = ref 0 in
  let sum_e = ref 0 in
  let sum_max_b = ref 0 in
  let events = Array.make k 0 in
  let busy = Array.make k 0 in
  let wait = Array.make k 0 in
  let sent = Array.make k 0 in
  let recv = Array.make k 0 in
  for w = 0 to n - 1 do
    let li =
      match Shard_stats.limit st w with
      | Shard_stats.Lookahead -> 0
      | Shard_stats.Queue -> 1
      | Shard_stats.Horizon -> 2
    in
    limits.(li) <- limits.(li) + 1;
    drain := !drain + Shard_stats.drain_ns st w;
    fold := !fold + Shard_stats.fold_ns st w;
    let p = Shard_stats.par_ns st w in
    par := !par + p;
    let bw = ref 0 and max_b = ref 0 and max_e = ref 0 in
    for s = 0 to k - 1 do
      let e = Shard_stats.events st w ~shard:s in
      let b = Shard_stats.busy_ns st w ~shard:s in
      events.(s) <- events.(s) + e;
      busy.(s) <- busy.(s) + b;
      wait.(s) <- wait.(s) + max 0 (p - b);
      bw := !bw + b;
      if b > !max_b then max_b := b;
      if e > !max_e then max_e := e;
      sum_e := !sum_e + e
    done;
    busy_tot := !busy_tot + !bw;
    crit := !crit + !max_b;
    dispatch := !dispatch + max 0 (p - !bw);
    sum_max_e := !sum_max_e + !max_e;
    sum_max_b := !sum_max_b + !max_b;
    if k > 1 then
      for src = 0 to k - 1 do
        for dst = 0 to k - 1 do
          let m = Shard_stats.traffic st w ~src ~dst in
          sent.(src) <- sent.(src) + m;
          recv.(dst) <- recv.(dst) + m
        done
      done
  done;
  let serial = !drain + !fold in
  let t1 = serial + !dispatch + !busy_tot in
  let wall =
    let m = Shard_stats.run_wall_ns st in
    if m > 0 then m else t1
  in
  let other = max 0 (wall - !par - serial) in
  let t_of cores =
    let acc = ref (serial + other + !dispatch) in
    for w = 0 to n - 1 do
      let bw = ref 0 and max_b = ref 0 in
      for s = 0 to k - 1 do
        let b = Shard_stats.busy_ns st w ~shard:s in
        bw := !bw + b;
        if b > !max_b then max_b := b
      done;
      acc := !acc + max !max_b ((!bw + cores - 1) / cores)
    done;
    !acc
  in
  let t1' = serial + other + !dispatch + !busy_tot in
  let speedup tc = if tc <= 0 then 1.0 else float_of_int t1' /. float_of_int tc in
  let cores =
    let base = [ 1; 2; 4; 8; 16; 32 ] in
    if List.mem k base then base
    else List.sort_uniq compare (k :: base)
  in
  let frac num = if wall <= 0 then 0.0 else float_of_int num /. float_of_int wall in
  let imb sum_max sum =
    if sum <= 0 then 1.0
    else float_of_int (k * sum_max) /. float_of_int sum
  in
  {
    sr_shards = k;
    sr_lookahead_ns = Shard_stats.lookahead_ns st;
    sr_windows = n;
    sr_events = !sum_e;
    sr_limit_lookahead = limits.(0);
    sr_limit_queue = limits.(1);
    sr_limit_horizon = limits.(2);
    sr_wall_ns = wall;
    sr_par_ns = !par;
    sr_drain_ns = !drain;
    sr_fold_ns = !fold;
    sr_other_ns = other;
    sr_busy_ns = !busy_tot;
    sr_critical_ns = !crit;
    sr_dispatch_ns = !dispatch;
    sr_parallel_frac = frac !par;
    sr_serial_frac = (if wall <= 0 then 0.0 else frac (max 0 (wall - !par)));
    sr_imbalance_events = imb !sum_max_e !sum_e;
    sr_imbalance_busy = imb !sum_max_b !busy_tot;
    sr_cross_msgs = Shard_stats.drained_total st;
    sr_pending = Shard_stats.pending st;
    sr_peak_mail_ints = Shard_stats.peak_mail_ints st;
    sr_per_shard =
      Array.init k (fun s ->
          {
            sh_events = events.(s);
            sh_busy_ns = busy.(s);
            sh_wait_ns = wait.(s);
            sh_sent = sent.(s);
            sh_recv = recv.(s);
          });
    sr_amdahl =
      Array.of_list (List.map (fun c -> (c, speedup (t_of c))) cores);
    sr_amdahl_limit =
      (let t_inf = serial + other + !dispatch + !crit in
       speedup t_inf);
  }

let render_sharded st =
  let r = sharded st in
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ms ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e6) in
  let pct f = Printf.sprintf "%.1f%%" (100.0 *. f) in
  pf "== sharded run: %d shards, %d windows, lookahead %s ms ==\n" r.sr_shards
    r.sr_windows (ms r.sr_lookahead_ns);
  pf "events %d | cross-shard msgs %d (pending %d, peak ring %d ints)\n"
    r.sr_events r.sr_cross_msgs r.sr_pending r.sr_peak_mail_ints;
  pf "windows: %d lookahead-limited, %d queue-limited, %d horizon-limited\n"
    r.sr_limit_lookahead r.sr_limit_queue r.sr_limit_horizon;
  pf "wall %s ms = parallel %s + drain %s + fold %s + other %s\n"
    (ms r.sr_wall_ns) (pct r.sr_parallel_frac)
    (pct (if r.sr_wall_ns <= 0 then 0.0
          else float_of_int r.sr_drain_ns /. float_of_int r.sr_wall_ns))
    (pct (if r.sr_wall_ns <= 0 then 0.0
          else float_of_int r.sr_fold_ns /. float_of_int r.sr_wall_ns))
    (pct (if r.sr_wall_ns <= 0 then 0.0
          else float_of_int r.sr_other_ns /. float_of_int r.sr_wall_ns));
  pf "busy %s ms over %d shards; critical path %s ms; dispatch %s ms\n"
    (ms r.sr_busy_ns) r.sr_shards (ms r.sr_critical_ns) (ms r.sr_dispatch_ns);
  pf "load imbalance: %.3f (events), %.3f (busy)\n" r.sr_imbalance_events
    r.sr_imbalance_busy;
  pf "%6s %10s %10s %10s %8s %8s\n" "shard" "events" "busy ms" "wait ms"
    "sent" "recv";
  Array.iteri
    (fun s row ->
      pf "%6d %10d %10s %10s %8d %8d\n" s row.sh_events (ms row.sh_busy_ns)
        (ms row.sh_wait_ns) row.sh_sent row.sh_recv)
    r.sr_per_shard;
  pf "Amdahl projection:";
  Array.iter
    (fun (c, s) -> pf " x%.2f @%d" s c)
    r.sr_amdahl;
  pf " | limit x%.2f\n" r.sr_amdahl_limit;
  Buffer.contents buf

let sharded_to_json st =
  let r = sharded st in
  let open Json in
  let analysis =
    Obj
      [
        ("wall_ns", Int r.sr_wall_ns);
        ( "attribution",
          Obj
            [
              ("parallel_ns", Int r.sr_par_ns);
              ("drain_ns", Int r.sr_drain_ns);
              ("fold_ns", Int r.sr_fold_ns);
              ("other_ns", Int r.sr_other_ns);
              ("busy_ns", Int r.sr_busy_ns);
              ("critical_ns", Int r.sr_critical_ns);
              ("dispatch_ns", Int r.sr_dispatch_ns);
              ("parallel_frac", Float r.sr_parallel_frac);
              ("serial_frac", Float r.sr_serial_frac);
            ] );
        ( "limits",
          Obj
            [
              ("lookahead", Int r.sr_limit_lookahead);
              ("queue", Int r.sr_limit_queue);
              ("horizon", Int r.sr_limit_horizon);
            ] );
        ( "imbalance",
          Obj
            [
              ("events", Float r.sr_imbalance_events);
              ("busy", Float r.sr_imbalance_busy);
            ] );
        ( "per_shard",
          List
            (Array.to_list
               (Array.mapi
                  (fun s row ->
                    Obj
                      [
                        ("shard", Int s);
                        ("events", Int row.sh_events);
                        ("busy_ns", Int row.sh_busy_ns);
                        ("wait_ns", Int row.sh_wait_ns);
                        ("sent", Int row.sh_sent);
                        ("recv", Int row.sh_recv);
                      ])
                  r.sr_per_shard)) );
        ( "amdahl",
          Obj
            [
              ( "cores",
                List
                  (Array.to_list
                     (Array.map (fun (c, _) -> Int c) r.sr_amdahl)) );
              ( "speedup",
                List
                  (Array.to_list
                     (Array.map (fun (_, s) -> Float s) r.sr_amdahl)) );
              ("limit", Float r.sr_amdahl_limit);
            ] );
      ]
  in
  to_string
    (Obj
       ((("schema", Str "psn-shardstats/1") :: Shard_stats.raw_members st)
       @ [ ("analysis", analysis) ]))
