(* End-to-end benchmark.

     dune exec bench/e2e/main.exe -- [--seed N] [--seconds S] [--traced] [--json FILE]

   runs every workload, each in a fresh child process (this program
   re-executed with --workload), prints every end-to-end metric by name
   with its unit, and exits non-zero unless every correctness check
   passed.  --traced adds a traced pass per workload: the per-layer
   ledger, with span exports under bench/e2e/_traces/.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   runs one workload in this process.  Its human-readable lines come
   first; the last two stdout lines are JSON: a detail object (samples,
   host block, checks, ledger), then {correct, attempted, failed,
   metrics} with the end-to-end metrics (--trace 0) or the per-layer
   metrics (--trace 1).  With --trace 0 it first starts itself
   [setup_runs] times with --setup, which sets the workload up and
   exits, to time set-up. *)

open Psn_e2e
module W = Workloads
module Json = Psn_obs.Json

let default_seconds = 20.0
let setup_runs = 5
let child_timeout_s = 180.0
let trace_dir = Filename.concat "bench" (Filename.concat "e2e" "_traces")

(* {2 Host block} *)

let first_line cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      ignore (Unix.close_process_in ic);
      Option.bind line (fun l -> if l = "" then None else Some l)

let opt_str = function Some s -> Json.Str s | None -> Json.Null

let host ~seed =
  [
    ( "nproc",
      match Option.bind (first_line "nproc 2>/dev/null") int_of_string_opt with
      | Some n -> Json.Int n
      | None -> Json.Null );
    ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
    ("psn_domains", opt_str (Sys.getenv_opt "PSN_DOMAINS"));
    ("ocaml_version", Json.Str Sys.ocaml_version);
    ( "commit",
      if Sys.file_exists ".git" then
        opt_str (first_line "git rev-parse --short=12 HEAD 2>/dev/null")
      else Json.Null );
    ("seed", Json.Int seed);
  ]

(* {2 Child: one workload in this process} *)

let metric value unit = Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ]

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj metrics);
       ])

let pp_summary name unit (s : Summary.t) =
  Printf.printf "  %-12s %12.6g %-5s n=%d min=%.6g max=%.6g iqr=%.6g (%.2f%% of median)\n"
    name s.median unit s.n s.min s.max (Summary.iqr s)
    (100.0 *. Summary.spread s)

let checks_json checks = Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) checks)

let pp_checks checks =
  List.iter
    (fun (n, ok) -> Printf.printf "  check %-40s %s\n" n (if ok then "ok" else "FAILED"))
    checks

(* [setup_s]: this program started afresh with [--setup], timed from
   spawn to exit: process start, module initialisers, and one
   execution's set-up.  Returns the samples and the failed count. *)
let time_setups (w : W.t) ~seed =
  let exe = Sys.executable_name in
  let argv = [| exe; "--workload"; w.name; "--seed"; string_of_int seed; "--setup" |] in
  let runs =
    Array.init setup_runs (fun _ ->
        let t0 = Span.now_ns () in
        let pid = Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr in
        let _, status = Unix.waitpid [] pid in
        (float_of_int (Span.now_ns () - t0) /. 1e9, status = Unix.WEXITED 0))
  in
  (Array.map fst runs, Array.fold_left (fun n (_, ok) -> if ok then n else n + 1) 0 runs)

let child_untraced (w : W.t) ~seed ~seconds =
  Printf.printf "%s: seed %d, %g s budget\n%!" w.name seed seconds;
  let setups, setup_failed = time_setups w ~seed in
  let m = w.untraced ~seed:(Int64.of_int seed) ~seconds in
  let attempted = m.attempted + setup_runs and failed = m.failed + setup_failed in
  let checks = ("set-ups exit 0", setup_failed = 0) :: m.checks in
  let wall = Summary.of_samples m.wall_s and setup = Summary.of_samples setups in
  pp_summary "wall_s" "s" wall;
  pp_summary "setup_s" "s" setup;
  Printf.printf "  %-12s %12.6g %s\n" "top_heap_mb" m.top_heap_mb "MB";
  List.iter (fun (n, v, u) -> Printf.printf "  %-12s %12.6g %s\n" n v u) m.extra;
  let fail_rate = float_of_int failed /. float_of_int attempted in
  Printf.printf "  %-12s %12.6g ratio (%d of %d failed)\n" "fail_rate" fail_rate failed
    attempted;
  pp_checks checks;
  let samples a = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) a)) in
  let detail =
    Json.Obj
      [
        ("workload", Json.Str w.name);
        ("mode", Json.Str "untraced");
        ( "host",
          Json.Obj
            (host ~seed
            @ [
                ("executions", Json.Int (Array.length m.wall_s));
                ("setup_samples", Json.Int setup_runs);
              ]) );
        ("samples", Json.Obj [ ("wall_s", samples m.wall_s); ("setup_s", samples setups) ]);
        ( "extra",
          Json.Obj
            (("fail_rate", metric fail_rate "ratio")
            :: List.map (fun (n, v, u) -> (n, metric v u)) m.extra) );
        ("checks", checks_json checks);
        ("info", Json.Obj m.info);
      ]
  in
  print_endline (Json.to_string detail);
  print_endline
    (result_line ~correct:(failed = 0) ~attempted ~failed
       [
         ("wall_s", metric wall.median "s");
         ("setup_s", metric setup.median "s");
         ("top_heap_mb", metric m.top_heap_mb "MB");
       ])

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let pp_ledger name (l : W.ledger) =
  let sum_ns = List.fold_left (fun a (r : Span.row) -> a + r.self_ns) 0 l.rows in
  let sum_s = float_of_int sum_ns /. 1e9 in
  Printf.printf "ledger %s: traced total %.6f s\n" name l.total_s;
  Printf.printf "  %-32s %9s %12s %8s\n" "layer (span self time)" "calls" "self_s" "share";
  List.iter
    (fun (r : Span.row) ->
      let s = float_of_int r.self_ns /. 1e9 in
      Printf.printf "  %-32s %9d %12.6f %7.2f%%\n" r.row_name r.count s
        (100.0 *. s /. l.total_s))
    l.rows;
  Printf.printf "  %-32s %9s %12.6f %7.2f%%\n" "sum of layers" "" sum_s
    (100.0 *. sum_s /. l.total_s);
  Printf.printf "  %-32s %9s %12.6f %7.2f%%\n" "residual (outside any layer)" ""
    (l.total_s -. sum_s)
    (100.0 *. (l.total_s -. sum_s) /. l.total_s);
  Printf.printf "  tracing overhead: traced %.6f s against one untraced call %.6f s (%+.2f%%)\n"
    l.total_s l.untraced_s
    (100.0 *. ((l.total_s /. l.untraced_s) -. 1.0));
  if l.stale then
    print_endline
      "  STALE: the traced composition's result differs from the untraced public call";
  List.iter (fun n -> Printf.printf "  %s\n" n) l.notes

let child_traced (w : W.t) ~seed =
  Printf.printf "%s: traced pass, seed %d\n%!" w.name seed;
  let t = w.traced ~seed:(Int64.of_int seed) in
  let failed = W.failures t.t_checks in
  pp_ledger w.name t.ledger;
  pp_checks t.t_checks;
  mkdir_p trace_dir;
  let path = Filename.concat trace_dir (w.name ^ ".json") in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Span.to_chrome t.spans));
  Printf.printf "  spans: %d recorded, Chrome trace in %s\n" (Array.length t.spans) path;
  let layers =
    List.map
      (fun (name, unit) ->
        (name, metric (Option.value ~default:0.0 (List.assoc_opt name t.layers)) unit))
      W.layer_metrics
  in
  let l = t.ledger in
  let sum_s =
    float_of_int (List.fold_left (fun a (r : Span.row) -> a + r.self_ns) 0 l.rows) /. 1e9
  in
  let detail =
    Json.Obj
      [
        ("workload", Json.Str w.name);
        ("mode", Json.Str "traced");
        ("host", Json.Obj (host ~seed));
        ( "ledger",
          Json.Obj
            [
              ("total_s", Json.Float l.total_s);
              ("untraced_s", Json.Float l.untraced_s);
              ("sum_s", Json.Float sum_s);
              ("residual_s", Json.Float (l.total_s -. sum_s));
              ("stale", Json.Bool l.stale);
              ( "rows",
                Json.List
                  (List.map
                     (fun (r : Span.row) ->
                       Json.Obj
                         [
                           ("layer", Json.Str r.row_name);
                           ("calls", Json.Int r.count);
                           ("self_s", Json.Float (float_of_int r.self_ns /. 1e9));
                         ])
                     l.rows) );
              ("notes", Json.List (List.map (fun n -> Json.Str n) l.notes));
            ] );
        ("checks", checks_json t.t_checks);
        ("chrome_trace", Json.Str path);
      ]
  in
  print_endline (Json.to_string detail);
  print_endline
    (result_line ~correct:(failed = 0) ~attempted:(List.length t.t_checks) ~failed
       layers)

(* {2 Parent: every workload, each in a fresh child} *)

type child = {
  json : (Json.t * Json.t) option;  (* detail, result *)
  error : string option;
}

(* Runs this program with [args], echoing its human-readable lines and
   keeping its JSON lines; kills it past [child_timeout_s]. *)
let run_child args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let deadline = Unix.gettimeofday () +. child_timeout_s in
  let chunk = Bytes.create 65536 and line = Buffer.create 256 in
  let json_lines = ref [] in
  let take_line () =
    let l = Buffer.contents line in
    Buffer.clear line;
    if String.length l > 0 && l.[0] = '{' then json_lines := l :: !json_lines
    else print_endline l
  in
  let rec pump () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then false
    else
      match Unix.select [ r ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
      | [], _, _ -> false
      | _ ->
          let k = Unix.read r chunk 0 (Bytes.length chunk) in
          if k = 0 then true
          else begin
            for i = 0 to k - 1 do
              match Bytes.get chunk i with
              | '\n' -> take_line ()
              | c -> Buffer.add_char line c
            done;
            pump ()
          end
  in
  let finished = pump () in
  if Buffer.length line > 0 then take_line ();
  if not finished then Unix.kill pid Sys.sigkill;
  let _, status = Unix.waitpid [] pid in
  Unix.close r;
  let parse s = Result.to_option (Json.of_string s) in
  match (finished, status, !json_lines) with
  | false, _, _ -> { json = None; error = Some "timed out" }
  | true, Unix.WEXITED 0, result :: detail :: _ -> (
      match (parse detail, parse result) with
      | Some d, Some r -> { json = Some (d, r); error = None }
      | _ -> { json = None; error = Some "unparsable result" })
  | true, Unix.WEXITED 0, _ -> { json = None; error = Some "no result" }
  | true, Unix.WEXITED c, _ -> { json = None; error = Some (Printf.sprintf "exit %d" c) }
  | true, (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      { json = None; error = Some (Printf.sprintf "signal %d" s) }

let member path j =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let num = function
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> Float.nan

let int_of = function Some (Json.Int i) -> i | _ -> 0

let samples j key =
  match member [ "samples"; key ] j with
  | Some (Json.List l) -> Array.of_list (List.map (fun x -> num (Some x)) l)
  | _ -> [||]

let print_table ~seed ~seconds results =
  Printf.printf "\n== end-to-end metrics (seed %d, %g s per workload, tracing off) ==\n"
    seed seconds;
  Printf.printf "%-11s %-12s %14s %-5s %3s %12s %12s %12s\n" "workload" "metric"
    "median" "unit" "n" "min" "max" "iqr";
  List.iter
    (fun ((w : W.t), c) ->
      match c.json with
      | None ->
          Printf.printf "%-11s %-12s %14s %-5s   (child %s)\n" w.name "fail_rate" "1"
            "ratio" (Option.value ~default:"failed" c.error)
      | Some (d, r) ->
          let row name unit =
            match samples d name with
            | [||] -> ()
            | xs ->
                let s = Summary.of_samples xs in
                Printf.printf "%-11s %-12s %14.6g %-5s %3d %12.6g %12.6g %12.6g\n"
                  w.name name s.median unit s.n s.min s.max (Summary.iqr s)
          in
          row "wall_s" "s";
          row "setup_s" "s";
          Printf.printf "%-11s %-12s %14.6g %-5s\n" w.name "top_heap_mb"
            (num (member [ "metrics"; "top_heap_mb"; "value" ] r))
            "MB";
          (match member [ "extra" ] d with
          | Some (Json.Obj l) ->
              List.iter
                (fun (name, m) ->
                  Printf.printf "%-11s %-12s %14.6g %-5s\n" w.name name
                    (num (Json.member "value" m))
                    (match Json.member "unit" m with Some (Json.Str u) -> u | _ -> ""))
                (List.rev l)
          | _ -> ()))
    results

let print_layers results =
  print_endline "\n== per-layer metrics (traced pass; zero where a layer is not exercised) ==";
  List.iter
    (fun ((w : W.t), c) ->
      match c.json with
      | None -> Printf.printf "%-11s traced child %s\n" w.name (Option.value ~default:"failed" c.error)
      | Some (_, r) ->
          List.iter
            (fun (name, unit) ->
              let v = num (member [ "metrics"; name; "value" ] r) in
              if v <> 0.0 then Printf.printf "%-11s %-36s %16.6g %s\n" w.name name v unit)
            W.layer_metrics)
    results

let ok c =
  match c.json with
  | Some (_, r) -> member [ "correct" ] r = Some (Json.Bool true)
  | None -> false

let parent ~seed ~seconds ~traced ~json_file =
  let base = [ "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds ] in
  let pass trace =
    List.map
      (fun (w : W.t) ->
        (w, run_child ([ "--workload"; w.name ] @ base @ [ "--trace"; trace ])))
      W.all
  in
  let untraced = pass "0" in
  let traced_results = if traced then pass "1" else [] in
  print_table ~seed ~seconds untraced;
  if traced then begin
    (* The overhead against the untraced median, now that both exist. *)
    List.iter2
      (fun (_, u) ((w : W.t), t) ->
        match (u.json, t.json) with
        | Some (d, _), Some (td, _) ->
            let wall = Summary.median (samples d "wall_s") in
            let total = num (member [ "ledger"; "total_s" ] td) in
            Printf.printf
              "%-11s tracing overhead: traced total %.6f s against wall_s median %.6f s (%+.2f%%)\n"
              w.name total wall
              (100.0 *. ((total /. wall) -. 1.0))
        | _ -> ())
      untraced traced_results;
    print_layers traced_results
  end;
  let all_runs = untraced @ traced_results in
  (* A child without a result line counts as one failed attempt. *)
  let count key =
    List.fold_left
      (fun a (_, c) ->
        a + match c.json with Some (_, r) -> int_of (member [ key ] r) | None -> 1)
      0 all_runs
  in
  let attempted = count "attempted" and failed = count "failed" in
  (match untraced with
  | (_, { json = Some (d, _); _ }) :: _ -> (
      match member [ "host" ] d with
      | Some h -> Printf.printf "\nhost: %s\n" (Json.to_string h)
      | None -> ())
  | _ -> ());
  Printf.printf "fail_rate: %d of %d executions and checks failed\n" failed attempted;
  Option.iter
    (fun path ->
      let entry ((w : W.t), c) =
        Json.Obj
          ([ ("workload", Json.Str w.name) ]
          @
          match c.json with
          | Some (d, r) -> [ ("result", r); ("detail", d) ]
          | None -> [ ("error", opt_str c.error) ])
      in
      let doc =
        Json.Obj
          [
            ("format", Json.Str "psn-e2e/1");
            ("seed", Json.Int seed);
            ("seconds", Json.Float seconds);
            ("untraced", Json.List (List.map entry untraced));
            ("traced", Json.List (List.map entry traced_results));
          ]
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Json.to_string doc ^ "\n"));
      Printf.printf "results: %s\n" path)
    json_file;
  if List.for_all (fun (_, c) -> ok c) all_runs then 0 else 1

let usage =
  "main.exe [--seed N] [--seconds S] [--traced] [--json FILE]\n\
   main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all)

let () =
  let workload = ref None and seed = ref 42 and seconds = ref default_seconds in
  let trace = ref 0 and traced = ref false and json_file = ref None in
  let setup = ref false in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S time budget of each workload's timed loop (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 with --workload: 1 runs the traced pass");
      ("--setup", Arg.Set setup, " with --workload: set the workload up and exit");
      ("--traced", Arg.Set traced, " also run each workload's traced pass");
      ("--json", Arg.String (fun f -> json_file := Some f), "FILE write every result as JSON");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  match !workload with
  | None -> exit (parent ~seed:!seed ~seconds:!seconds ~traced:!traced ~json_file:!json_file)
  | Some name -> (
      match W.find name with
      | None ->
          prerr_endline ("unknown workload " ^ name ^ "\n" ^ usage);
          exit 2
      | Some w ->
          if !setup then w.set_up ~seed:(Int64.of_int !seed)
          else if !trace = 1 then child_traced w ~seed:!seed
          else child_untraced w ~seed:!seed ~seconds:!seconds)
