(* Host-time scoped profiler with GC telemetry.

   Everything else in this library measures *simulated* time; this module
   is the one deliberate exception.  [with_phase] brackets a thunk with
   the host's monotonic clock (bechamel's CLOCK_MONOTONIC stub — the same
   clock the benchmarks use) and [Gc.quick_stat], and accumulates the
   deltas per phase name.  Host readings never enter a trace sink or a
   metrics registry: they live only in the profile artifact, so the
   same-seed byte-identity of traces is untouched by profiling.

   Phases aggregate by name (a phase entered in a loop sums), keep
   first-entry order, and may nest — a nested phase's cost is counted in
   its enclosing phase too, like any wall-clock profiler. *)

type phase = {
  name : string;
  count : int;
  wall_ns : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

type acc = {
  mutable a_count : int;
  mutable a_wall_ns : int;
  mutable a_minor_words : float;
  mutable a_promoted_words : float;
  mutable a_major_words : float;
  mutable a_minor_collections : int;
  mutable a_major_collections : int;
  mutable a_compactions : int;
}

type t = {
  mutable order : string list;  (* reversed first-entry order *)
  table : (string, acc) Hashtbl.t;
}

let create () = { order = []; table = Hashtbl.create 16 }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let acc_of t name =
  match Hashtbl.find_opt t.table name with
  | Some a -> a
  | None ->
      let a =
        { a_count = 0; a_wall_ns = 0; a_minor_words = 0.0;
          a_promoted_words = 0.0; a_major_words = 0.0;
          a_minor_collections = 0; a_major_collections = 0;
          a_compactions = 0 }
      in
      Hashtbl.replace t.table name a;
      t.order <- name :: t.order;
      a

(* [Gc.quick_stat] only refreshes [minor_words] at minor collections, so
   a phase that allocates less than a minor heap would report zero;
   [Gc.minor_words ()] reads the live allocation pointer instead. *)
let with_phase t name f =
  let a = acc_of t name in
  let g0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let t0 = now_ns () in
  let record () =
    let t1 = now_ns () in
    let mw1 = Gc.minor_words () in
    let g1 = Gc.quick_stat () in
    a.a_count <- a.a_count + 1;
    a.a_wall_ns <- a.a_wall_ns + (t1 - t0);
    a.a_minor_words <- a.a_minor_words +. (mw1 -. mw0);
    a.a_promoted_words <-
      a.a_promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    a.a_major_words <- a.a_major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
    a.a_minor_collections <-
      a.a_minor_collections + (g1.Gc.minor_collections - g0.Gc.minor_collections);
    a.a_major_collections <-
      a.a_major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
    a.a_compactions <- a.a_compactions + (g1.Gc.compactions - g0.Gc.compactions)
  in
  Fun.protect ~finally:record f

let phases t =
  List.rev_map
    (fun name ->
      let a = Hashtbl.find t.table name in
      {
        name;
        count = a.a_count;
        wall_ns = a.a_wall_ns;
        minor_words = a.a_minor_words;
        promoted_words = a.a_promoted_words;
        major_words = a.a_major_words;
        minor_collections = a.a_minor_collections;
        major_collections = a.a_major_collections;
        compactions = a.a_compactions;
      })
    t.order

(* Schema "psn-profile/1": field order fixed, so two profiles of the same
   run shape diff line-for-line (the values are host readings and differ
   run to run — that is the point of the artifact). *)
let to_json t =
  let phase_json p =
    Json.Obj
      [
        ("name", Json.Str p.name);
        ("count", Json.Int p.count);
        ("wall_ns", Json.Int p.wall_ns);
        ("minor_words", Json.Float p.minor_words);
        ("promoted_words", Json.Float p.promoted_words);
        ("major_words", Json.Float p.major_words);
        ("minor_collections", Json.Int p.minor_collections);
        ("major_collections", Json.Int p.major_collections);
        ("compactions", Json.Int p.compactions);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "psn-profile/1");
         ("unit", Json.Str "ns");
         ("phases", Json.List (List.map phase_json (phases t)));
       ])

let pp ppf t =
  Fmt.pf ppf "%-32s %5s %12s %14s %14s %6s %6s@." "phase" "n" "wall ms"
    "minor words" "major words" "min gc" "maj gc";
  List.iter
    (fun p ->
      Fmt.pf ppf "%-32s %5d %12.3f %14.0f %14.0f %6d %6d@." p.name p.count
        (float_of_int p.wall_ns /. 1e6)
        p.minor_words p.major_words p.minor_collections p.major_collections)
    (phases t)

(* Per-domain default, mirroring [Trace.default]: experiment internals
   call [phase] unconditionally; it costs two clock reads only when a
   profile is installed on the calling domain. *)
let default_profile : t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_default p f =
  let saved = Domain.DLS.get default_profile in
  Domain.DLS.set default_profile (Some p);
  Fun.protect ~finally:(fun () -> Domain.DLS.set default_profile saved) f

let phase name f =
  match Domain.DLS.get default_profile with
  | Some p -> with_phase p name f
  | None -> f ()
