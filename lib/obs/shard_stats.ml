(* Per-round flat-int arena for sharded-run observability.

   A round gives every shard one turn (see [Exec]): the shard drains its
   mailboxes, then runs below its own safe horizon.  Row layout
   ([stride] ints, header then per-shard lanes then the traffic
   matrix):

     0  start_ns     sim ns, round start (the global minimum at its top)
     1  end_ns       sim ns, furthest horizon a shard ran to (exclusive)
     2  limit        0 lookahead- / 1 queue- / 2 horizon-limited
     3  drain_ns     host ns, the turns' mailbox drains
     4  fold_ns      host ns, the global-minimum fold at the round's top
     5  par_ns       host ns, the turns less their drains
     6  mail_msgs    cross-shard messages drained this round
     7  mail_ints    ring occupancy (ints) at the round's drains, pre-drain
     8 .. 8+k-1          per-shard events executed in the round
     8+k .. 8+2k-1       per-shard busy host ns
     8+2k .. 8+2k+k²-1   messages src→dst drained this round

   The first [chunk_rows] (1024) rounds' rows are written once into
   [rows], round [w] at offset [w * stride], allocated when the first
   round opens; later rounds open their row in [scratch].
   [window_close] folds every committed row into the running totals, so
   the stats stay the same size however long the run: at K = 2 a row is
   128 B and [rows] 128 KB.  The last committed round's end and
   provisional class live in scalars until [classify_prev] settles it,
   which rewrites the row only when it is kept.  An aborted round's row
   is reused by the next round, so recording allocates nothing after
   the first round. *)

let header = 8
let o_start = 0
let o_end = 1
let o_limit = 2
let o_drain = 3
let o_fold = 4
let o_par = 5
let o_msgs = 6
let o_ints = 7
let chunk_rows = 1024

type limit = Lookahead | Queue | Horizon

let limit_to_string = function
  | Lookahead -> "lookahead"
  | Queue -> "queue"
  | Horizon -> "horizon"

let limit_of_int = function 0 -> Lookahead | 1 -> Queue | _ -> Horizon
let int_of_limit = function Lookahead -> 0 | Queue -> 1 | Horizon -> 2
let[@inline] imax (a : int) b = if a > b then a else b

(* Core counts of the Amdahl projection, K included. *)
let amdahl_cores k =
  let base = [ 1; 2; 4; 8; 16; 32 ] in
  Array.of_list
    (if List.mem k base then base else List.sort_uniq compare (k :: base))

type t = {
  k : int;
  la_ns : int;
  stride : int; (* header + 2k + k² *)
  mutable rows : int array;
      (* the kept rows, [chunk_rows * stride] ints; [||] until a round
         opens *)
  scratch : int array; (* the open row once [rows] is full *)
  mutable n : int; (* committed rounds *)
  mutable row : int array; (* [rows] or [scratch], holding the open row *)
  mutable cur : int; (* offset of the open row in [row]; -1 when none *)
  mutable last_end : int; (* end_ns of the last committed round *)
  mutable unclassified : bool;
      (* the last committed round awaits [classify_prev] *)
  (* Totals over committed rounds. *)
  limits : int array; (* rounds per [int_of_limit] *)
  mutable drain : int;
  mutable fold : int;
  mutable par : int;
  ev : int array; (* per shard *)
  busy : int array;
  wait : int array;
  traffic : int array; (* src * k + dst *)
  mutable max_busy : int;
  mutable max_events : int;
  mutable dispatch : int;
  cores : int array;
  turns : int array; (* per [cores] *)
  (* All-run counters. *)
  posted : int array; (* per shard: cross-shard posts *)
  last_events : int array; (* per shard: previous cumulative count *)
  mutable drained : int;
  mutable peak_ints : int;
  mutable wall_ns : int;
  mutable ep_drain : int;
  mutable ep_fold : int;
  mutable ep_msgs : int;
}

let create ~shards ~lookahead_ns =
  if shards < 1 then invalid_arg "Shard_stats.create: shards must be >= 1";
  let stride = header + (2 * shards) + (shards * shards) in
  let cores = amdahl_cores shards in
  {
    k = shards;
    la_ns = lookahead_ns;
    stride;
    rows = [||];
    scratch = Array.make stride 0;
    n = 0;
    row = [||];
    cur = -1;
    last_end = 0;
    unclassified = false;
    limits = Array.make 3 0;
    drain = 0;
    fold = 0;
    par = 0;
    ev = Array.make shards 0;
    busy = Array.make shards 0;
    wait = Array.make shards 0;
    traffic = Array.make (shards * shards) 0;
    max_busy = 0;
    max_events = 0;
    dispatch = 0;
    cores;
    turns = Array.make (Array.length cores) 0;
    posted = Array.make shards 0;
    last_events = Array.make shards 0;
    drained = 0;
    peak_ints = 0;
    wall_ns = 0;
    ep_drain = 0;
    ep_fold = 0;
    ep_msgs = 0;
  }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- recording --------------------------------------------------------- *)

let alloc_rows t = t.rows <- Array.make (chunk_rows * t.stride) 0

let round_begin t =
  if t.n < chunk_rows then begin
    if Array.length t.rows = 0 then alloc_rows t;
    t.row <- t.rows;
    t.cur <- t.n * t.stride
  end
  else begin
    t.row <- t.scratch;
    t.cur <- 0
  end;
  Array.fill t.row t.cur t.stride 0

let note_traffic t ~src ~dst ~msgs =
  let o = t.cur in
  let cell = o + header + (2 * t.k) + (src * t.k) + dst in
  t.row.(cell) <- t.row.(cell) + msgs;
  t.row.(o + o_msgs) <- t.row.(o + o_msgs) + msgs;
  t.drained <- t.drained + msgs

let note_occupancy t ~ints =
  t.row.(t.cur + o_ints) <- t.row.(t.cur + o_ints) + ints;
  if ints > t.peak_ints then t.peak_ints <- ints

let drain_done t ~host_ns = t.row.(t.cur + o_drain) <- host_ns
let fold_done t ~host_ns = t.row.(t.cur + o_fold) <- host_ns

let window_open t ~start_ns ~end_ns =
  t.row.(t.cur + o_start) <- start_ns;
  t.row.(t.cur + o_end) <- end_ns

let shard_report t ~shard ~events_total ~busy_ns =
  let o = t.cur in
  t.row.(o + header + shard) <- events_total - t.last_events.(shard);
  t.last_events.(shard) <- events_total;
  t.row.(o + header + t.k + shard) <- busy_ns

(* Add the open row to the totals. *)
let fold_row t =
  let r = t.row and o = t.cur and k = t.k in
  let p = r.(o + o_par) in
  t.drain <- t.drain + r.(o + o_drain);
  t.fold <- t.fold + r.(o + o_fold);
  t.par <- t.par + p;
  let bw = ref 0 and max_b = ref 0 and max_e = ref 0 in
  for s = 0 to k - 1 do
    let e = r.(o + header + s) and b = r.(o + header + k + s) in
    t.ev.(s) <- t.ev.(s) + e;
    t.busy.(s) <- t.busy.(s) + b;
    t.wait.(s) <- t.wait.(s) + imax 0 (p - b);
    bw := !bw + b;
    if b > !max_b then max_b := b;
    if e > !max_e then max_e := e
  done;
  t.max_busy <- t.max_busy + !max_b;
  t.max_events <- t.max_events + !max_e;
  t.dispatch <- t.dispatch + imax 0 (p - !bw);
  let m = o + header + (2 * k) in
  for i = 0 to (k * k) - 1 do
    t.traffic.(i) <- t.traffic.(i) + r.(m + i)
  done;
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    t.turns.(i) <- t.turns.(i) + imax !max_b ((!bw + c - 1) / c)
  done

let window_close t ~clipped ~par_ns =
  let o = t.cur in
  let lim = int_of_limit (if clipped then Horizon else Queue) in
  t.row.(o + o_limit) <- lim;
  t.row.(o + o_par) <- par_ns;
  fold_row t;
  t.limits.(lim) <- t.limits.(lim) + 1;
  t.last_end <- t.row.(o + o_end);
  t.n <- t.n + 1;
  t.cur <- -1;
  t.unclassified <- not clipped

let classify_prev t ~next_ns =
  if t.unclassified then begin
    if next_ns - t.last_end < t.la_ns then begin
      let q = int_of_limit Queue and l = int_of_limit Lookahead in
      t.limits.(q) <- t.limits.(q) - 1;
      t.limits.(l) <- t.limits.(l) + 1;
      let w = t.n - 1 in
      if w < chunk_rows then t.rows.((w * t.stride) + o_limit) <- l
    end;
    t.unclassified <- false
  end

let round_abort t =
  let o = t.cur in
  t.ep_drain <- t.ep_drain + t.row.(o + o_drain);
  t.ep_fold <- t.ep_fold + t.row.(o + o_fold);
  t.ep_msgs <- t.ep_msgs + t.row.(o + o_msgs);
  t.cur <- -1

let note_posted t ~src = t.posted.(src) <- t.posted.(src) + 1

let run_done t ~wall_ns = t.wall_ns <- t.wall_ns + wall_ns

(* --- reading ----------------------------------------------------------- *)

let shards t = t.k
let lookahead_ns t = t.la_ns
let windows t = t.n
let limited t l = t.limits.(int_of_limit l)
let sum_drain_ns t = t.drain
let sum_fold_ns t = t.fold
let sum_par_ns t = t.par
let sum_events t ~shard = t.ev.(shard)
let sum_busy_ns t ~shard = t.busy.(shard)
let sum_wait_ns t ~shard = t.wait.(shard)
let sum_traffic t ~src ~dst = t.traffic.((src * t.k) + dst)
let sum_max_busy_ns t = t.max_busy
let sum_max_events t = t.max_events
let sum_dispatch_ns t = t.dispatch
let amdahl_turns_ns t = Array.mapi (fun i c -> (c, t.turns.(i))) t.cores
let total_events t = Array.fold_left ( + ) 0 t.ev
let posted_total t = Array.fold_left ( + ) 0 t.posted
let drained_total t = t.drained
let pending t = posted_total t - drained_total t
let peak_mail_ints t = t.peak_ints
let run_wall_ns t = t.wall_ns
let epilogue_drain_ns t = t.ep_drain
let epilogue_fold_ns t = t.ep_fold
let epilogue_mail_msgs t = t.ep_msgs
let kept_rows t = min t.n chunk_rows

let get t w field =
  if w < 0 || w >= kept_rows t then
    invalid_arg
      (Printf.sprintf "Shard_stats: round %d is not kept (%d of %d rounds)" w
         (kept_rows t) t.n);
  t.rows.((w * t.stride) + field)

let start_ns t w = get t w o_start
let end_ns t w = get t w o_end
let limit t w = limit_of_int (get t w o_limit)
let drain_ns t w = get t w o_drain
let fold_ns t w = get t w o_fold
let par_ns t w = get t w o_par
let mail_msgs t w = get t w o_msgs
let mail_ints t w = get t w o_ints
let events t w ~shard = get t w (header + shard)
let busy_ns t w ~shard = get t w (header + t.k + shard)

let traffic t w ~src ~dst =
  get t w (header + (2 * t.k) + (src * t.k) + dst)

(* --- serialization ----------------------------------------------------- *)

let schema = "psn-shardstats/2"
let json_ints a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

let totals_json t =
  Json.Obj
    [
      ("windows", Json.Int t.n);
      ("events", Json.Int (total_events t));
      ("posted", Json.Int (posted_total t));
      ("drained", Json.Int t.drained);
      ("pending", Json.Int (pending t));
      ("peak_mailbox_ints", Json.Int t.peak_ints);
      ("run_wall_ns", Json.Int t.wall_ns);
      ("epilogue_drain_ns", Json.Int t.ep_drain);
      ("epilogue_fold_ns", Json.Int t.ep_fold);
      ("epilogue_mail_msgs", Json.Int t.ep_msgs);
      ("lookahead_limited", Json.Int (limited t Lookahead));
      ("queue_limited", Json.Int (limited t Queue));
      ("horizon_limited", Json.Int (limited t Horizon));
      ("drain_ns", Json.Int t.drain);
      ("fold_ns", Json.Int t.fold);
      ("par_ns", Json.Int t.par);
      ("shard_events", json_ints t.ev);
      ("shard_busy_ns", json_ints t.busy);
      ("shard_wait_ns", json_ints t.wait);
      ("traffic", json_ints t.traffic);
      ("sum_max_busy_ns", Json.Int t.max_busy);
      ("sum_max_events", Json.Int t.max_events);
      ("dispatch_ns", Json.Int t.dispatch);
      ("amdahl_turns_ns", json_ints t.turns);
    ]

let row_json t w =
  let ints f = Json.List (List.init t.k (fun s -> Json.Int (f s))) in
  let base =
    [
      ("start_ns", Json.Int (start_ns t w));
      ("end_ns", Json.Int (end_ns t w));
      ("limit", Json.Str (limit_to_string (limit t w)));
      ("drain_ns", Json.Int (drain_ns t w));
      ("fold_ns", Json.Int (fold_ns t w));
      ("par_ns", Json.Int (par_ns t w));
      ("mail_msgs", Json.Int (mail_msgs t w));
      ("mail_ints", Json.Int (mail_ints t w));
      ("events", ints (fun s -> events t w ~shard:s));
      ("busy_ns", ints (fun s -> busy_ns t w ~shard:s));
    ]
  in
  (* The matrix is all zeros in most rows (and always for K = 1):
     omit it and let the parser default to zeros. *)
  if mail_msgs t w = 0 then Json.Obj base
  else
    Json.Obj
      (base
      @ [
          ( "traffic",
            Json.List
              (List.init (t.k * t.k) (fun i ->
                   Json.Int (traffic t w ~src:(i / t.k) ~dst:(i mod t.k))))
          );
        ])

let raw_members t =
  [
    ("schema", Json.Str schema);
    ("shards", Json.Int t.k);
    ("lookahead_ns", Json.Int t.la_ns);
    ("totals", totals_json t);
    ("windows", Json.List (List.init (kept_rows t) (fun w -> row_json t w)));
  ]

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let int name j =
    match Json.member name j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "shardstats: missing int %S" name)
  in
  let int_list name j =
    match Json.member name j with
    | Some (Json.List l) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | Json.Int i :: rest -> go (i :: acc) rest
          | _ -> Error (Printf.sprintf "shardstats: non-int in %S" name)
        in
        go [] l
    | _ -> Error (Printf.sprintf "shardstats: missing list %S" name)
  in
  (* Read list [name], which must hold [len] ints, into [dst] from
     [off]. *)
  let load_list name j dst off len =
    let* l = int_list name j in
    if List.length l <> len then
      Error (Printf.sprintf "shardstats: %S holds %d ints, not %d" name
               (List.length l) len)
    else begin
      List.iteri (fun i v -> dst.(off + i) <- v) l;
      Ok ()
    end
  in
  let* () =
    match Json.member "schema" j with
    | Some (Json.Str s) when s = schema -> Ok ()
    | Some (Json.Str s) ->
        Error
          (Printf.sprintf
             "shardstats: unsupported schema %S (this build reads %S)" s
             schema)
    | _ -> Error "shardstats: missing \"schema\""
  in
  let* k = int "shards" j in
  let* la = int "lookahead_ns" j in
  if k < 1 then Error "shardstats: shards must be >= 1"
  else
    let t = create ~shards:k ~lookahead_ns:la in
    let* tot =
      match Json.member "totals" j with
      | Some o -> Ok o
      | None -> Error "shardstats: missing \"totals\""
    in
    let* n = int "windows" tot in
    let* posted = int "posted" tot in
    let* drained = int "drained" tot in
    let* peak = int "peak_mailbox_ints" tot in
    let* wall = int "run_wall_ns" tot in
    let* ep_drain = int "epilogue_drain_ns" tot in
    let* ep_fold = int "epilogue_fold_ns" tot in
    let* ep_msgs = int "epilogue_mail_msgs" tot in
    let* lim_l = int "lookahead_limited" tot in
    let* lim_q = int "queue_limited" tot in
    let* lim_h = int "horizon_limited" tot in
    let* drain = int "drain_ns" tot in
    let* fold = int "fold_ns" tot in
    let* par = int "par_ns" tot in
    let* max_busy = int "sum_max_busy_ns" tot in
    let* max_events = int "sum_max_events" tot in
    let* dispatch = int "dispatch_ns" tot in
    let* () = load_list "shard_events" tot t.ev 0 k in
    let* () = load_list "shard_busy_ns" tot t.busy 0 k in
    let* () = load_list "shard_wait_ns" tot t.wait 0 k in
    let* () = load_list "traffic" tot t.traffic 0 (k * k) in
    let* () =
      load_list "amdahl_turns_ns" tot t.turns 0 (Array.length t.cores)
    in
    t.posted.(0) <- posted;
    t.drained <- drained;
    t.peak_ints <- peak;
    t.wall_ns <- wall;
    t.ep_drain <- ep_drain;
    t.ep_fold <- ep_fold;
    t.ep_msgs <- ep_msgs;
    t.limits.(0) <- lim_l;
    t.limits.(1) <- lim_q;
    t.limits.(2) <- lim_h;
    t.drain <- drain;
    t.fold <- fold;
    t.par <- par;
    t.max_busy <- max_busy;
    t.max_events <- max_events;
    t.dispatch <- dispatch;
    let* rows =
      match Json.member "windows" j with
      | Some (Json.List l) -> Ok l
      | _ -> Error "shardstats: missing \"windows\""
    in
    let kept = min n chunk_rows in
    if List.length rows <> kept then
      Error
        (Printf.sprintf
           "shardstats: %d rows for %d windows (the first %d are kept)"
           (List.length rows) n kept)
    else begin
      if kept > 0 then alloc_rows t;
      let rec load w = function
        | [] ->
            t.n <- n;
            Ok t
        | row :: rest ->
            let o = w * t.stride in
            let r = t.rows in
            let* s = int "start_ns" row in
            let* e = int "end_ns" row in
            let* lim =
              match Json.member "limit" row with
              | Some (Json.Str "lookahead") -> Ok 0
              | Some (Json.Str "queue") -> Ok 1
              | Some (Json.Str "horizon") -> Ok 2
              | _ -> Error "shardstats: bad \"limit\""
            in
            let* drain = int "drain_ns" row in
            let* fold = int "fold_ns" row in
            let* par = int "par_ns" row in
            let* msgs = int "mail_msgs" row in
            let* ints = int "mail_ints" row in
            r.(o + o_start) <- s;
            r.(o + o_end) <- e;
            r.(o + o_limit) <- lim;
            r.(o + o_drain) <- drain;
            r.(o + o_fold) <- fold;
            r.(o + o_par) <- par;
            r.(o + o_msgs) <- msgs;
            r.(o + o_ints) <- ints;
            let* () = load_list "events" row r (o + header) k in
            let* () = load_list "busy_ns" row r (o + header + k) k in
            let* () =
              match Json.member "traffic" row with
              | None -> Ok ()
              | Some _ ->
                  load_list "traffic" row r (o + header + (2 * k)) (k * k)
            in
            load (w + 1) rest
      in
      load 0 rows
    end
