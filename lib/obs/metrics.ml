(* Metrics registry: named counters, gauges, histograms.

   Handles are plain mutable cells resolved once at registration, so
   instrumented hot paths never touch the name table. Histograms reuse
   [Psn_util.Stats.histogram]; the wrapper remembers the bounds so [reset]
   can rebuild an empty one.

   The timeline is the registry's time axis: a fixed-capacity ring of
   (sim time, instrument values) samples, recorded every sampling period
   by whoever drives the clock (the engine, see [Psn_sim.Engine]).  A
   full ring overwrites the oldest sample — the tail of a run is the
   interesting part — and remembers how many it dropped so exports can
   say so. *)

module Stats = Psn_util.Stats

type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  h_lo : float;
  h_hi : float;
  h_bins : int;
  mutable h : Stats.histogram;
}

type instrument = C of counter | G of gauge | H of histogram

type t = { table : (string, instrument) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register t name make want =
  match Hashtbl.find_opt t.table name with
  | Some i ->
      if kind_name i <> want then
        invalid_arg
          (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name i)
             want);
      i
  | None ->
      let i = make () in
      Hashtbl.replace t.table name i;
      i

let counter t name =
  match register t name (fun () -> C { c = 0 }) "counter" with
  | C c -> c
  | _ -> assert false

let incr ?(by = 1) c = c.c <- c.c + by
let tick c = c.c <- c.c + 1
let counter_value c = c.c

let gauge t name =
  match register t name (fun () -> G { g = 0.0 }) "gauge" with
  | G g -> g
  | _ -> assert false

let set g v = g.g <- v

let histogram t ?(lo = 0.0) ?(hi = 1000.0) ?(bins = 20) name =
  let make () =
    H { h_lo = lo; h_hi = hi; h_bins = bins;
        h = Stats.histogram_create ~lo ~hi ~bins }
  in
  match register t name make "histogram" with
  | H h ->
      (* Get-or-create must agree on the range: silently keeping the
         original bounds would misbin the second registrant's samples
         without any signal. *)
      if h.h_lo <> lo || h.h_hi <> hi || h.h_bins <> bins then
        invalid_arg
          (Printf.sprintf
             "Metrics.histogram: %S already registered with [%g,%g) x%d, \
              requested [%g,%g) x%d"
             name h.h_lo h.h_hi h.h_bins lo hi bins);
      h
  | _ -> assert false

let observe h v = Stats.histogram_add h.h v

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      lo : float;
      hi : float;
      counts : int array;
      underflow : int;
      overflow : int;
    }

type snapshot = (string * value) list

let snapshot t =
  Hashtbl.fold
    (fun name i acc ->
      let v =
        match i with
        | C c -> Counter c.c
        | G g -> Gauge g.g
        | H h ->
            Histogram
              {
                lo = h.h_lo;
                hi = h.h_hi;
                counts = Stats.histogram_bins h.h;
                underflow = Stats.histogram_underflow h.h;
                overflow = Stats.histogram_overflow h.h;
              }
      in
      (name, v) :: acc)
    t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Hashtbl.iter
    (fun _ i ->
      match i with
      | C c -> c.c <- 0
      | G g -> g.g <- 0.0
      | H h ->
          h.h <- Stats.histogram_create ~lo:h.h_lo ~hi:h.h_hi ~bins:h.h_bins)
    t.table

(* Deterministic union of per-shard snapshots: counters and histogram
   bins sum; gauges take the last writer in argument order (shard
   index), which is why sharded layers stick to counters and histograms
   for anything that must merge back to the single-run value.  The
   result is sorted by name like any [snapshot]. *)
let merge_snapshots snaps =
  let tbl : (string, value) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun snap ->
      List.iter
        (fun (name, v) ->
          match (Hashtbl.find_opt tbl name, v) with
          | None, _ -> Hashtbl.replace tbl name v
          | Some (Counter a), Counter b -> Hashtbl.replace tbl name (Counter (a + b))
          | Some (Gauge _), (Gauge _ as g) -> Hashtbl.replace tbl name g
          | Some (Histogram a), Histogram b ->
              if a.lo <> b.lo || a.hi <> b.hi
                 || Array.length a.counts <> Array.length b.counts
              then
                invalid_arg
                  (Printf.sprintf
                     "Metrics.merge_snapshots: histogram %S bounds mismatch" name)
              else
                Hashtbl.replace tbl name
                  (Histogram
                     {
                       a with
                       counts = Array.map2 ( + ) a.counts b.counts;
                       underflow = a.underflow + b.underflow;
                       overflow = a.overflow + b.overflow;
                     })
          | Some _, _ ->
              invalid_arg
                (Printf.sprintf
                   "Metrics.merge_snapshots: instrument %S kind mismatch" name))
        snap)
    snaps;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find snap name = List.assoc_opt name snap

let get_counter snap name =
  match find snap name with Some (Counter c) -> c | _ -> 0

let value_to_json = function
  | Counter c -> Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int c) ]
  | Gauge g -> Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Float g) ]
  | Histogram h ->
      Json.Obj
        [
          ("type", Json.Str "histogram");
          ("lo", Json.Float h.lo);
          ("hi", Json.Float h.hi);
          ("underflow", Json.Int h.underflow);
          ("overflow", Json.Int h.overflow);
          ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)));
        ]

let snapshot_to_json snap =
  Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) snap))

(* Accept Int where a float field is expected: "0" parses as Int. *)
let as_float = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let value_of_json name j =
  let fail what =
    Error (Printf.sprintf "snapshot field %S: bad or missing %s" name what)
  in
  match Json.member "type" j with
  | Some (Json.Str "counter") -> (
      match Json.member "value" j with
      | Some (Json.Int c) -> Ok (Counter c)
      | _ -> fail "counter value")
  | Some (Json.Str "gauge") -> (
      match Option.bind (Json.member "value" j) as_float with
      | Some g -> Ok (Gauge g)
      | None -> fail "gauge value")
  | Some (Json.Str "histogram") -> (
      let num k = Option.bind (Json.member k j) as_float in
      let int k =
        match Json.member k j with Some (Json.Int i) -> Some i | _ -> None
      in
      let counts =
        match Json.member "counts" j with
        | Some (Json.List xs) ->
            let ints =
              List.filter_map
                (function Json.Int i -> Some i | _ -> None)
                xs
            in
            if List.length ints = List.length xs then Some (Array.of_list ints)
            else None
        | _ -> None
      in
      match (num "lo", num "hi", int "underflow", int "overflow", counts) with
      | Some lo, Some hi, Some underflow, Some overflow, Some counts ->
          Ok (Histogram { lo; hi; counts; underflow; overflow })
      | _ -> fail "histogram fields")
  | _ -> fail "type"

let snapshot_of_json s =
  match Json.of_string s with
  | Error e -> Error e
  | Ok (Json.Obj fields) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (name, j) :: rest -> (
            match value_of_json name j with
            | Ok v -> go ((name, v) :: acc) rest
            | Error e -> Error e)
      in
      go [] fields
  | Ok _ -> Error "snapshot JSON must be an object"

(* --- timeline ---------------------------------------------------------- *)

type sample = { s_time_ns : int; s_values : (string * float) list }

type timeline = {
  tl_period_ns : int;
  tl_cap : int;
  tl_ring : sample array;
  mutable tl_recorded : int;  (* total ever recorded; ring head is mod cap *)
}

let dummy_sample = { s_time_ns = 0; s_values = [] }

let timeline_create ?(capacity = 4096) ~period_ns () =
  if period_ns <= 0 then
    invalid_arg "Metrics.timeline_create: period must be positive";
  if capacity <= 0 then
    invalid_arg "Metrics.timeline_create: capacity must be positive";
  { tl_period_ns = period_ns; tl_cap = capacity;
    tl_ring = Array.make capacity dummy_sample; tl_recorded = 0 }

let timeline_period_ns tl = tl.tl_period_ns

(* Counters and gauges become points of the series; histograms only
   contribute their total observation count (the shape lives in the end-of-run
   snapshot).  Sorted by name, so samples — and their exports — are
   deterministic. *)
let timeline_record tl ~time_ns t =
  let values =
    Hashtbl.fold
      (fun name i acc ->
        let v =
          match i with
          | C c -> float_of_int c.c
          | G g -> g.g
          | H h -> float_of_int (Stats.histogram_total h.h)
        in
        (name, v) :: acc)
      t.table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  tl.tl_ring.(tl.tl_recorded mod tl.tl_cap) <-
    { s_time_ns = time_ns; s_values = values };
  tl.tl_recorded <- tl.tl_recorded + 1

let timeline_recorded tl = tl.tl_recorded
let timeline_dropped tl = max 0 (tl.tl_recorded - tl.tl_cap)

let timeline_samples tl =
  let kept = min tl.tl_recorded tl.tl_cap in
  let first = tl.tl_recorded - kept in
  List.init kept (fun i -> tl.tl_ring.((first + i) mod tl.tl_cap))

(* Per-domain default, picked up by [Psn_sim.Engine.create] exactly like
   the default trace sink: installing one makes every engine created
   under it, on this domain, sample its registry on the timeline's
   period. *)
let default_tl : timeline option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let default_timeline () = Domain.DLS.get default_tl

let with_default_timeline tl f =
  let saved = default_timeline () in
  Domain.DLS.set default_tl (Some tl);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set default_tl saved)
    (fun () -> Psn_util.Parallel.sequentially f)
