(* Per-window flat-int arena for sharded-run observability.

   Row layout ([stride] ints, header then per-shard lanes then the
   traffic matrix):

     0  start_ns     sim ns, window start (the global minimum)
     1  end_ns       sim ns, exclusive window end
     2  limit        0 lookahead- / 1 queue- / 2 horizon-limited
     3  drain_ns     host ns, coordinator mailbox drain
     4  fold_ns      host ns, coordinator next-window fold
     5  par_ns       host ns, the window loop (every shard in turn)
     6  mail_msgs    cross-shard messages drained at this barrier
     7  mail_ints    ring occupancy (ints) at this barrier, pre-drain
     8 .. 8+k-1          per-shard events executed in the window
     8+k .. 8+2k-1       per-shard busy host ns
     8+2k .. 8+2k+k²-1   messages src→dst drained at this barrier

   The arena grows by doubling and rows are reused on abort, so
   steady-state recording allocates nothing (the pending_arena idiom). *)

let header = 8
let o_start = 0
let o_end = 1
let o_limit = 2
let o_drain = 3
let o_fold = 4
let o_par = 5
let o_msgs = 6
let o_ints = 7

type limit = Lookahead | Queue | Horizon

let limit_to_string = function
  | Lookahead -> "lookahead"
  | Queue -> "queue"
  | Horizon -> "horizon"

let limit_of_int = function 0 -> Lookahead | 1 -> Queue | _ -> Horizon
let int_of_limit = function Lookahead -> 0 | Queue -> 1 | Horizon -> 2

type t = {
  k : int;
  la_ns : int;
  stride : int; (* header + 2k + k² *)
  mutable rows : int array;
  mutable n : int; (* committed rows *)
  mutable cur : int; (* offset of the open row; -1 when none *)
  posted : int array; (* per shard: cross-shard posts *)
  last_events : int array; (* per shard: previous cumulative count *)
  mutable drained : int;
  mutable peak_ints : int;
  mutable wall_ns : int;
  mutable ep_drain : int;
  mutable ep_fold : int;
  mutable ep_msgs : int;
  mutable unclassified : bool;
      (* the last committed row awaits [classify_prev] *)
}

let create ~shards ~lookahead_ns =
  if shards < 1 then invalid_arg "Shard_stats.create: shards must be >= 1";
  let stride = header + (2 * shards) + (shards * shards) in
  {
    k = shards;
    la_ns = lookahead_ns;
    stride;
    rows = Array.make (stride * 64) 0;
    n = 0;
    cur = -1;
    posted = Array.make shards 0;
    last_events = Array.make shards 0;
    drained = 0;
    peak_ints = 0;
    wall_ns = 0;
    ep_drain = 0;
    ep_fold = 0;
    ep_msgs = 0;
    unclassified = false;
  }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- recording --------------------------------------------------------- *)

let round_begin t =
  let need = (t.n + 1) * t.stride in
  if need > Array.length t.rows then begin
    let cap = ref (Array.length t.rows) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nr = Array.make !cap 0 in
    Array.blit t.rows 0 nr 0 (t.n * t.stride);
    t.rows <- nr
  end;
  let o = t.n * t.stride in
  Array.fill t.rows o t.stride 0;
  t.cur <- o

let note_traffic t ~src ~dst ~msgs =
  let o = t.cur in
  let cell = o + header + (2 * t.k) + (src * t.k) + dst in
  t.rows.(cell) <- t.rows.(cell) + msgs;
  t.rows.(o + o_msgs) <- t.rows.(o + o_msgs) + msgs;
  t.drained <- t.drained + msgs

let note_occupancy t ~ints =
  t.rows.(t.cur + o_ints) <- t.rows.(t.cur + o_ints) + ints;
  if ints > t.peak_ints then t.peak_ints <- ints

let drain_done t ~host_ns = t.rows.(t.cur + o_drain) <- host_ns
let fold_done t ~host_ns = t.rows.(t.cur + o_fold) <- host_ns

let window_open t ~start_ns ~end_ns =
  t.rows.(t.cur + o_start) <- start_ns;
  t.rows.(t.cur + o_end) <- end_ns

let shard_report t ~shard ~events_total ~busy_ns =
  let o = t.cur in
  t.rows.(o + header + shard) <- events_total - t.last_events.(shard);
  t.last_events.(shard) <- events_total;
  t.rows.(o + header + t.k + shard) <- busy_ns

let window_close t ~clipped ~par_ns =
  let o = t.cur in
  t.rows.(o + o_limit) <- int_of_limit (if clipped then Horizon else Queue);
  t.rows.(o + o_par) <- par_ns;
  t.n <- t.n + 1;
  t.cur <- -1;
  t.unclassified <- not clipped

let classify_prev t ~next_ns =
  if t.unclassified && t.n > 0 then begin
    let o = (t.n - 1) * t.stride in
    if next_ns - t.rows.(o + o_end) < t.la_ns then
      t.rows.(o + o_limit) <- int_of_limit Lookahead;
    t.unclassified <- false
  end

let round_abort t =
  let o = t.cur in
  t.ep_drain <- t.ep_drain + t.rows.(o + o_drain);
  t.ep_fold <- t.ep_fold + t.rows.(o + o_fold);
  t.ep_msgs <- t.ep_msgs + t.rows.(o + o_msgs);
  t.cur <- -1

let note_posted t ~src = t.posted.(src) <- t.posted.(src) + 1

let run_done t ~wall_ns = t.wall_ns <- t.wall_ns + wall_ns

(* --- reading ----------------------------------------------------------- *)

let shards t = t.k
let lookahead_ns t = t.la_ns
let windows t = t.n
let start_ns t w = t.rows.((w * t.stride) + o_start)
let end_ns t w = t.rows.((w * t.stride) + o_end)
let limit t w = limit_of_int t.rows.((w * t.stride) + o_limit)
let drain_ns t w = t.rows.((w * t.stride) + o_drain)
let fold_ns t w = t.rows.((w * t.stride) + o_fold)
let par_ns t w = t.rows.((w * t.stride) + o_par)
let mail_msgs t w = t.rows.((w * t.stride) + o_msgs)
let mail_ints t w = t.rows.((w * t.stride) + o_ints)
let events t w ~shard = t.rows.((w * t.stride) + header + shard)
let busy_ns t w ~shard = t.rows.((w * t.stride) + header + t.k + shard)

let traffic t w ~src ~dst =
  t.rows.((w * t.stride) + header + (2 * t.k) + (src * t.k) + dst)

let total_events t =
  let acc = ref 0 in
  for w = 0 to t.n - 1 do
    for s = 0 to t.k - 1 do
      acc := !acc + events t w ~shard:s
    done
  done;
  !acc

let posted_total t = Array.fold_left ( + ) 0 t.posted

let drained_total t = t.drained
let pending t = posted_total t - drained_total t
let peak_mail_ints t = t.peak_ints
let run_wall_ns t = t.wall_ns
let epilogue_drain_ns t = t.ep_drain
let epilogue_fold_ns t = t.ep_fold
let epilogue_mail_msgs t = t.ep_msgs

(* --- serialization ----------------------------------------------------- *)

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
  (* The matrix is all zeros in most windows (and always for K = 1):
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
    ("shards", Json.Int t.k);
    ("lookahead_ns", Json.Int t.la_ns);
    ("totals", totals_json t);
    ("windows", Json.List (List.init t.n (fun w -> row_json t w)));
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
  let* () =
    match Json.member "schema" j with
    | Some (Json.Str "psn-shardstats/1") -> Ok ()
    | Some (Json.Str s) ->
        Error (Printf.sprintf "shardstats: unsupported schema %S" s)
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
    let* posted = int "posted" tot in
    let* drained = int "drained" tot in
    let* peak = int "peak_mailbox_ints" tot in
    let* wall = int "run_wall_ns" tot in
    let* ep_drain = int "epilogue_drain_ns" tot in
    let* ep_fold = int "epilogue_fold_ns" tot in
    let* ep_msgs = int "epilogue_mail_msgs" tot in
    t.posted.(0) <- posted;
    t.drained <- drained;
    t.peak_ints <- peak;
    t.wall_ns <- wall;
    t.ep_drain <- ep_drain;
    t.ep_fold <- ep_fold;
    t.ep_msgs <- ep_msgs;
    let* rows =
      match Json.member "windows" j with
      | Some (Json.List l) -> Ok l
      | _ -> Error "shardstats: missing \"windows\""
    in
    let rec load = function
      | [] -> Ok t
      | row :: rest ->
          round_begin t;
          let o = t.cur in
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
          let* ev = int_list "events" row in
          let* busy = int_list "busy_ns" row in
          if List.length ev <> k || List.length busy <> k then
            Error "shardstats: per-shard list length mismatch"
          else begin
            t.rows.(o + o_start) <- s;
            t.rows.(o + o_end) <- e;
            t.rows.(o + o_limit) <- lim;
            t.rows.(o + o_drain) <- drain;
            t.rows.(o + o_fold) <- fold;
            t.rows.(o + o_par) <- par;
            t.rows.(o + o_msgs) <- msgs;
            t.rows.(o + o_ints) <- ints;
            List.iteri (fun s v -> t.rows.(o + header + s) <- v) ev;
            List.iteri (fun s v -> t.rows.(o + header + k + s) <- v) busy;
            let* () =
              match Json.member "traffic" row with
              | None -> Ok ()
              | Some _ ->
                  let* m = int_list "traffic" row in
                  if List.length m <> k * k then
                    Error "shardstats: traffic matrix length mismatch"
                  else begin
                    List.iteri
                      (fun i v -> t.rows.(o + header + (2 * k) + i) <- v)
                      m;
                    Ok ()
                  end
            in
            t.n <- t.n + 1;
            t.cur <- -1;
            load rest
          end
    in
    load rows
