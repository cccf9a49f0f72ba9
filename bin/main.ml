(* psn-sim: command-line driver for the pervasive sensornet library.

   Subcommands:
     list                     available experiments
     experiment [IDS...]      run claim-reproduction experiments (all by default)
     hall | office | hospital | habitat   run one scenario and print its report
*)

module Sim_time = Psn_sim.Sim_time
module Clock_kind = Psn_clocks.Clock_kind
open Cmdliner

(* Shared options. *)

(* An int option with a lower bound: a value below it is a usage error
   (exit 124) before anything runs. *)
let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= lo -> Ok k
    | _ -> Error (`Msg (Printf.sprintf "expected a %s, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive what = int_at_least 1 ("positive " ^ what)

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps and horizons.")

let seed =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let horizon_s =
  Arg.(
    value & opt (positive "horizon") 3600
    & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Simulated duration.")

let delta_ms =
  Arg.(
    value & opt (int_at_least 0 "non-negative delay") 100
    & info [ "delta" ] ~docv:"MS"
        ~doc:"Message delay bound Delta in milliseconds (0 = synchronous).")

let clock_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "strobe-vector" | "sv" -> Ok Clock_kind.Strobe_vector
    | "strobe-scalar" | "ss" -> Ok Clock_kind.Strobe_scalar
    | "lamport" | "logical-scalar" -> Ok Clock_kind.Logical_scalar
    | "vector" | "logical-vector" -> Ok Clock_kind.Logical_vector
    | "physical" | "synced-physical" ->
        Ok (Clock_kind.Synced_physical { eps = Sim_time.of_ms 1 })
    | "perfect" -> Ok Clock_kind.Perfect_physical
    | "raw-physical" | "physical-vector" -> Ok Clock_kind.Physical_vector
    | other -> Error (`Msg (Printf.sprintf "unknown clock %S" other))
  in
  let print ppf c = Fmt.string ppf (Clock_kind.to_string c) in
  Arg.conv (parse, print)

let clock =
  Arg.(
    value
    & opt clock_conv Clock_kind.Strobe_vector
    & info [ "clock" ] ~docv:"CLOCK"
        ~doc:
          "Clock kind: strobe-vector, strobe-scalar, logical-scalar, \
           logical-vector, physical, perfect, raw-physical.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured JSONL event trace of the run to $(docv). \
           Forces single-domain execution so the trace order is total.")

(* Install a default sink (and optionally a metric timeline) around [f]
   and flush to [path] on the way out (even on exceptions, so partial runs
   still leave evidence).  Both defaults keep [f]'s maps on this domain,
   so the trace is total. *)
let traced_to ?timeline ~write path f =
  let sink = Psn_obs.Trace.create () in
  let run () =
    match timeline with
    | None -> f ()
    | Some tl -> Psn_obs.Metrics.with_default_timeline tl f
  in
  Fun.protect
    ~finally:(fun () ->
      try
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc sink);
        Fmt.epr "trace: %d events -> %s@." (Psn_obs.Trace.length sink) path
      with Sys_error msg -> Fmt.epr "trace: cannot write trace: %s@." msg)
    (fun () -> Psn_obs.Trace.with_default sink run)

let with_trace trace_file f =
  match trace_file with
  | None -> f ()
  | Some path -> traced_to ~write:Psn_obs.Export.write_jsonl path f

let config_of ~seed ~horizon_s ~delta_ms ~clock ~n =
  let delay =
    if delta_ms = 0 then Psn_sim.Delay_model.synchronous
    else
      Psn_sim.Delay_model.bounded_uniform
        ~min:(Sim_time.of_ms (max 1 (delta_ms / 10)))
        ~max:(Sim_time.of_ms delta_ms)
  in
  {
    Psn.Config.default with
    n;
    clock;
    delay;
    horizon = Sim_time.of_sec horizon_s;
    seed;
  }

let print_report report =
  Fmt.pr "%a@." Psn.Report.pp report;
  Fmt.pr "truth intervals: %d, occurrences: %d@."
    (List.length (Psn.Report.truth report))
    (List.length (Psn.Report.occurrences report))

(* list *)

let list_cmd =
  let doc = "List available experiments." in
  let run () =
    List.iter
      (fun (e : Psn_experiments.Experiments.entry) ->
        Fmt.pr "%-4s %s@." e.id e.title)
      Psn_experiments.Experiments.all;
    Fmt.pr "%-4s %s@." "e10" "clock microbenchmarks (dune exec bench/main.exe)"
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* experiment *)

let experiment_cmd =
  let doc = "Run claim-reproduction experiments (all when no ids given)." in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids.")
  in
  let run quick trace_file ids =
    with_trace trace_file @@ fun () ->
    match ids with
    | [] ->
        Psn_experiments.Experiments.print_all ~quick ();
        `Ok ()
    | ids ->
        let missing =
          List.filter
            (fun id -> Option.is_none (Psn_experiments.Experiments.find id))
            ids
        in
        if missing <> [] then
          `Error
            (false,
             Printf.sprintf "unknown experiment(s): %s"
               (String.concat ", " missing))
        else begin
          List.iter
            (fun id ->
              match Psn_experiments.Experiments.find id with
              | Some e ->
                  Psn_experiments.Exp_common.print (e.run ~quick ());
                  print_newline ()
              | None -> ())
            ids;
          `Ok ()
        end
  in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(ret (const run $ quick $ trace_file $ ids))

(* scenarios *)

let hall_cmd =
  let doc = "Exhibition hall occupancy scenario (paper S5)." in
  let doors =
    Arg.(
      value & opt (positive "door count") 4
      & info [ "doors" ] ~docv:"D" ~doc:"Door count.")
  in
  let capacity =
    Arg.(value & opt int 15 & info [ "capacity" ] ~docv:"C" ~doc:"Room capacity.")
  in
  let visitors =
    Arg.(value & opt int 32 & info [ "visitors" ] ~docv:"V" ~doc:"Visitors.")
  in
  let run seed horizon_s delta_ms clock trace_file doors capacity visitors =
    with_trace trace_file @@ fun () ->
    let cfg =
      { Psn_scenarios.Exhibition_hall.default with doors; capacity; visitors }
    in
    let config = config_of ~seed ~horizon_s ~delta_ms ~clock ~n:doors in
    Fmt.pr "predicate: %a@."
      Psn_predicates.Expr.pp
      (Psn_scenarios.Exhibition_hall.predicate cfg);
    print_report (Psn_scenarios.Exhibition_hall.run ~cfg config)
  in
  Cmd.v (Cmd.info "hall" ~doc)
    Term.(
      const run $ seed $ horizon_s $ delta_ms $ clock $ trace_file $ doors
      $ capacity $ visitors)

let office_cmd =
  let doc = "Smart office scenario: temp > 30 AND motion." in
  let thermostat =
    Arg.(value & flag & info [ "thermostat" ] ~doc:"Actuate on detection.")
  in
  let definitely =
    Arg.(value & flag & info [ "definitely" ] ~doc:"Use the Definitely modality.")
  in
  let run seed horizon_s delta_ms clock trace_file thermostat definitely =
    with_trace trace_file @@ fun () ->
    let cfg = { Psn_scenarios.Smart_office.default with thermostat } in
    let config =
      config_of ~seed ~horizon_s ~delta_ms ~clock
        ~n:(Psn_scenarios.Smart_office.n_processes cfg)
    in
    let modality =
      if definitely then Psn_predicates.Modality.Definitely
      else Psn_predicates.Modality.Instantaneous
    in
    print_report (Psn_scenarios.Smart_office.run ~cfg ~modality config)
  in
  Cmd.v (Cmd.info "office" ~doc)
    Term.(
      const run $ seed $ horizon_s $ delta_ms $ clock $ trace_file $ thermostat
      $ definitely)

let hospital_cmd =
  let doc = "Hospital ward proximity scenario." in
  let patients =
    Arg.(
      value & opt (positive "patient count") 2
      & info [ "patients" ] ~docv:"P" ~doc:"Patients.")
  in
  let visitors =
    Arg.(
      value & opt (int_at_least 0 "non-negative visitor count") 5
      & info [ "visitors" ] ~docv:"V" ~doc:"Visitors.")
  in
  let run seed horizon_s delta_ms clock trace_file patients visitors =
    with_trace trace_file @@ fun () ->
    let cfg = { Psn_scenarios.Hospital.default with patients; visitors } in
    let config = config_of ~seed ~horizon_s ~delta_ms ~clock ~n:patients in
    print_report (Psn_scenarios.Hospital.run ~cfg config)
  in
  Cmd.v (Cmd.info "hospital" ~doc)
    Term.(
      const run $ seed $ horizon_s $ delta_ms $ clock $ trace_file $ patients
      $ visitors)

let habitat_cmd =
  let doc = "Habitat duty-cycle coordination scenario." in
  let nodes =
    Arg.(
      value & opt (int_at_least 2 "node count of at least 2") 8
      & info [ "nodes" ] ~docv:"N" ~doc:"Nodes (at least 2).")
  in
  let duration_ms =
    Arg.(
      value & opt (int_at_least 0 "non-negative duration") 1500
      & info [ "duration" ] ~docv:"MS" ~doc:"Phenomenon duration (ms).")
  in
  let run seed horizon_s duration_ms nodes =
    let cfg =
      {
        Psn_scenarios.Habitat.default with
        nodes;
        seed;
        horizon = Sim_time.of_sec horizon_s;
        event_duration = Sim_time.of_ms duration_ms;
      }
    in
    let r = Psn_scenarios.Habitat.run cfg in
    Fmt.pr
      "events=%d mean_coverage=%.1f%% full=%d msgs=%d awake=%a@."
      r.Psn_scenarios.Habitat.events
      (100.0 *. r.Psn_scenarios.Habitat.mean_coverage)
      r.Psn_scenarios.Habitat.full_coverage r.Psn_scenarios.Habitat.messages
      Sim_time.pp r.Psn_scenarios.Habitat.wake_time
  in
  Cmd.v (Cmd.info "habitat" ~doc)
    Term.(const run $ seed $ horizon_s $ duration_ms $ nodes)

let banking_cmd =
  let doc = "Secure banking: biometric-after-password timing relation." in
  let eps_ms =
    Arg.(
      value & opt (int_at_least 0 "non-negative skew") 100
      & info [ "eps" ] ~docv:"MS" ~doc:"Clock synchronization skew (ms).")
  in
  let run seed horizon_s eps_ms =
    let cfg =
      {
        Psn_scenarios.Banking.default with
        seed;
        horizon = Sim_time.of_sec horizon_s;
        eps = Sim_time.of_ms eps_ms;
      }
    in
    Fmt.pr "spec: %a@." Psn_predicates.Timed.pp (Psn_scenarios.Banking.spec cfg);
    let r = Psn_scenarios.Banking.run cfg in
    Fmt.pr
      "logins=%d attacks=%d oracle_alarms=%d alarms=%d tp=%d fp=%d fn=%d msgs=%d@."
      r.Psn_scenarios.Banking.logins r.Psn_scenarios.Banking.attacks
      r.Psn_scenarios.Banking.oracle_alarms r.Psn_scenarios.Banking.alarms
      r.Psn_scenarios.Banking.alarm_tp r.Psn_scenarios.Banking.alarm_fp
      r.Psn_scenarios.Banking.alarm_fn r.Psn_scenarios.Banking.messages
  in
  Cmd.v (Cmd.info "banking" ~doc) Term.(const run $ seed $ horizon_s $ eps_ms)

let lattice_cmd =
  let doc =
    "Visualize the slim lattice postulate: run a strobe execution and \
     print the consistent-state lattice (counts, or Graphviz with --dot)."
  in
  let nodes =
    Arg.(
      value & opt (positive "process count") 3
      & info [ "procs" ] ~docv:"N" ~doc:"Processes.")
  in
  let events =
    Arg.(
      value & opt int 4 & info [ "events" ] ~docv:"K" ~doc:"Events per process.")
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of counts.") in
  let no_strobes =
    Arg.(value & flag & info [ "no-strobes" ] ~doc:"Disable strobing entirely.")
  in
  let run seed delta_ms nodes events dot no_strobes =
    let delta =
      if no_strobes then None
      else if delta_ms = 0 then Some Sim_time.zero
      else Some (Sim_time.of_ms delta_ms)
    in
    let plane, handles =
      Psn_experiments.E03_slim_lattice.strobe_run ~seed ~n:nodes
        ~events_per_proc:events ~rate:0.5 ~delta ()
    in
    if dot then
      print_string
        (Psn_lattice.Lattice.to_dot
           (Psn_lattice.Lattice.stamps_of_plane plane handles))
    else begin
      (* Peak antichain width of the BFS, via the packed walk's
         per-level probe: how "slim" the lattice actually is. *)
      let peak = ref 0 in
      let consistent =
        Psn_lattice.Packed.with_frontier_probe
          (fun width -> if width > !peak then peak := width)
          (fun () -> Psn_lattice.Lattice.count_consistent_plane plane handles)
      in
      Fmt.pr "consistent cuts : %a@." Psn_lattice.Lattice.pp_verdict consistent;
      Fmt.pr "all cuts        : %a@." Psn_lattice.Lattice.pp_verdict
        (Psn_lattice.Lattice.total_cuts_of_lens (Array.map Array.length handles));
      Fmt.pr "peak frontier   : %d@." !peak;
      Fmt.pr "chain (linear)  : %b@."
        (Psn_lattice.Lattice.is_chain_plane plane handles)
    end
  in
  Cmd.v (Cmd.info "lattice" ~doc)
    Term.(const run $ seed $ delta_ms $ nodes $ events $ dot $ no_strobes)

(* Scenarios runnable under a sink (trace/analyze): office, hall,
   hospital. *)

let scenario_arg =
  let sc =
    Arg.enum [ ("office", `Office); ("hall", `Hall); ("hospital", `Hospital) ]
  in
  (sc, "office, hall, or hospital")

let run_scenario ~seed ~horizon_s ~delta_ms ~clock = function
  | `Office ->
      let cfg = Psn_scenarios.Smart_office.default in
      let config =
        config_of ~seed ~horizon_s ~delta_ms ~clock
          ~n:(Psn_scenarios.Smart_office.n_processes cfg)
      in
      print_report (Psn_scenarios.Smart_office.run ~cfg config)
  | `Hall ->
      let cfg = Psn_scenarios.Exhibition_hall.default in
      let config = config_of ~seed ~horizon_s ~delta_ms ~clock ~n:cfg.doors in
      print_report (Psn_scenarios.Exhibition_hall.run ~cfg config)
  | `Hospital ->
      let cfg = Psn_scenarios.Hospital.default in
      let config = config_of ~seed ~horizon_s ~delta_ms ~clock ~n:cfg.patients in
      print_report (Psn_scenarios.Hospital.run ~cfg config)

(* trace *)

let trace_cmd =
  let doc =
    "Run a scenario with structured tracing and write the event trace \
     (JSONL, or Chrome trace_event JSON for Perfetto / chrome://tracing)."
  in
  let scenario =
    let sc, names = scenario_arg in
    Arg.(
      value & pos 0 sc `Office
      & info [] ~docv:"SCENARIO" ~doc:("Scenario: " ^ names ^ "."))
  in
  let out =
    Arg.(
      value
      & opt string "trace.jsonl"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let format =
    let fc = Arg.enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ] in
    Arg.(
      value & opt fc `Jsonl
      & info [ "format" ] ~docv:"FMT" ~doc:"Trace format: jsonl or chrome.")
  in
  let timeline_ms =
    Arg.(
      value & opt int 0
      & info [ "timeline" ] ~docv:"MS"
          ~doc:
            "Sample every registered metric each $(docv) of simulated \
             time. Chrome traces embed the samples as counter tracks; \
             JSONL writes them to FILE.timeline.jsonl. 0 disables.")
  in
  let run seed horizon_s delta_ms clock scenario out format timeline_ms =
    let timeline =
      if timeline_ms <= 0 then None
      else
        Some
          (Psn_obs.Metrics.timeline_create
             ~period_ns:(timeline_ms * 1_000_000) ())
    in
    let write oc sink =
      match format with
      | `Jsonl ->
          Psn_obs.Export.write_jsonl oc sink;
          Option.iter
            (fun tl ->
              let tl_path = out ^ ".timeline.jsonl" in
              let tlc = open_out tl_path in
              Fun.protect
                ~finally:(fun () -> close_out tlc)
                (fun () -> Psn_obs.Export.write_timeline_jsonl tlc tl);
              Fmt.epr "timeline: %d samples -> %s@."
                (Psn_obs.Metrics.timeline_recorded tl)
                tl_path)
            timeline
      | `Chrome -> Psn_obs.Export.write_chrome ?timeline oc [ sink ]
    in
    traced_to ?timeline ~write out @@ fun () ->
    run_scenario ~seed ~horizon_s ~delta_ms ~clock scenario
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ seed $ horizon_s $ delta_ms $ clock $ scenario $ out $ format
      $ timeline_ms)

(* analyze *)

let analyze_cmd =
  let doc =
    "Causal trace analytics: critical paths behind detector occurrences \
     with per-hop latency attribution, per-link delivery-latency \
     histograms, queue watermarks, and drop attribution. Post-hoc over a \
     JSONL trace FILE, or online over a live scenario run ($(b,--run)) \
     with bounded memory under $(b,--horizon-ms)."
  in
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "JSONL trace to analyze post-hoc (written by $(b,trace) or \
             $(b,--trace)).")
  in
  let run_live =
    let sc, names = scenario_arg in
    Arg.(
      value
      & opt (some sc) None
      & info [ "run" ] ~docv:"SCENARIO"
          ~doc:
            ("Instead of reading a file, run " ^ names
           ^ " live and analyze its record stream online (nothing is \
              retained)."))
  in
  let horizon_ms =
    Arg.(
      value & opt int 0
      & info [ "horizon-ms" ] ~docv:"MS"
          ~doc:
            "Sim-time retirement horizon: flow edges unmatched after \
             $(docv) of simulated time are expired, bounding analyzer \
             memory. 0 = unbounded.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the psn-analyze/1 JSON summary to $(docv) (- for stdout).")
  in
  let top =
    Arg.(
      value & opt (positive "link count") 16
      & info [ "top" ] ~docv:"N" ~doc:"Largest links to list in the report.")
  in
  let run seed horizon_s delta_ms clock file run_live horizon_ms json_out top =
    let horizon_ns =
      if horizon_ms <= 0 then None else Some (horizon_ms * 1_000_000)
    in
    let az = Psn_obs.Analyze.create ?horizon_ns () in
    let outcome =
      match (file, run_live) with
      | Some _, Some _ -> Error "pass either a trace FILE or --run, not both"
      | None, None ->
          Error "nothing to analyze: pass a trace FILE or --run SCENARIO"
      | Some path, None -> (
          match Psn_obs.Import.iter_file (Psn_obs.Analyze.feed az) path with
          | Ok n ->
              Fmt.epr "analyze: %d records <- %s@." n path;
              Ok ()
          | Error e -> Error (Printf.sprintf "%s: %s" path e)
          | exception Sys_error msg -> Error msg)
      | None, Some scenario ->
          (* Online: an unretained sink streams every record straight into
             the analyzer; the trace never accumulates. *)
          let sink = Psn_obs.Trace.create ~retain:false () in
          Psn_obs.Trace.set_tap sink (Some (Psn_obs.Analyze.feed az));
          Psn_obs.Trace.with_default sink (fun () ->
              run_scenario ~seed ~horizon_s ~delta_ms ~clock scenario);
          Ok ()
    in
    match outcome with
    | Error e -> `Error (false, e)
    | Ok () ->
        print_string (Psn_obs.Analyze.render ~top az);
        (match json_out with
        | None -> ()
        | Some "-" -> print_endline (Psn_obs.Analyze.to_json ~top az)
        | Some path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc (Psn_obs.Analyze.to_json ~top az);
                output_char oc '\n');
            Fmt.epr "analyze: summary -> %s@." path);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      ret
        (const run $ seed $ horizon_s $ delta_ms $ clock $ file $ run_live
       $ horizon_ms $ json_out $ top))

(* Sharded scenarios (the Exec substrate): hall, banking, hospital,
   calm — runnable under shardstats and profile. *)

module Sharded_sc = Psn_scenarios.Sharded

let sharded_scenario_arg =
  let sc =
    Arg.enum
      [ ("hall", `Hall); ("banking", `Banking); ("hospital", `Hospital);
        ("calm", `Calm) ]
  in
  (sc, "hall, banking, hospital, or calm")

let shards_arg =
  Arg.(
    value
    & opt (positive "shard count") 4
    & info [ "shards" ] ~docv:"K" ~doc:"Shard count for the sharded engine.")

let run_sharded_scenario ~seed ~shards ~horizon_s ?sinks sc =
  let detect =
    { Sharded_sc.default_detect with horizon = Sim_time.of_sec horizon_s }
  in
  let lookahead = Psn_sim.Delay_model.min_delay detect.Sharded_sc.delay in
  let exec = Psn_sim.Exec.sharded ~seed ~shards ~lookahead () in
  let report =
    match sc with
    | `Hall ->
        Sharded_sc.hall ~cfg:{ Sharded_sc.hall_default with detect } ?sinks exec
    | `Banking ->
        Sharded_sc.banking
          ~cfg:{ Sharded_sc.banking_default with detect }
          ?sinks exec
    | `Hospital ->
        Sharded_sc.hospital
          ~cfg:{ Sharded_sc.wards = 12; sample_period = 8.0; threshold = 102;
                 detect }
          ?sinks exec
    | `Calm ->
        Sharded_sc.calm ~cfg:{ Sharded_sc.calm_default with detect } ?sinks exec
  in
  (report, exec)

(* shardstats *)

let shardstats_cmd =
  let doc =
    "Shard-aware runtime observability: per-window per-shard event counts, \
     busy/wait/drain host-time attribution, load-imbalance coefficients, \
     and an Amdahl projected-speedup curve — live over a sharded scenario \
     run ($(b,--run)), or post-hoc over a psn-shardstats/1 JSON FILE \
     written by $(b,--json)."
  in
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"psn-shardstats/1 JSON dump to re-analyze post-hoc.")
  in
  let run_live =
    let sc, names = sharded_scenario_arg in
    Arg.(
      value
      & opt (some sc) None
      & info [ "run" ] ~docv:"SCENARIO"
          ~doc:
            ("Run " ^ names
           ^ " on the sharded engine (K = $(b,--shards)) and report its \
              window statistics."))
  in
  let horizon_s =
    Arg.(
      value & opt (positive "horizon") 60
      & info [ "horizon" ] ~docv:"SECONDS"
          ~doc:"Simulated duration of the $(b,--run) scenario.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the psn-shardstats/1 JSON document (raw per-window data \
             plus the analysis) to stdout instead of the text report.")
  in
  let chrome_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write a host-time Gantt of the run to $(docv) (Chrome \
             trace_event JSON): shard = pid row, window = slice, \
             coordinator drain/fold = explicit slices, cross-shard mail = \
             flow arrows.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "With $(b,--run): collect per-group sim traces and write the \
             merged Chrome document to $(docv), one tid block per group.")
  in
  let write_file path content ~what =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc content);
    Fmt.epr "shardstats: %s -> %s@." what path
  in
  let output ~json ~chrome_out st =
    if json then print_endline (Psn_obs.Analyze.sharded_to_json st)
    else print_string (Psn_obs.Analyze.render_sharded st);
    Option.iter
      (fun path ->
        write_file path (Psn_obs.Export.shard_chrome_string st)
          ~what:"window gantt")
      chrome_out
  in
  let run seed file run_live shards horizon_s json chrome_out trace_out =
    match (file, run_live) with
    | Some _, Some _ -> `Error (false, "pass either FILE or --run, not both")
    | None, None ->
        `Error (false, "nothing to report: pass a FILE or --run SCENARIO")
    | Some path, None -> (
        match
          let contents =
            In_channel.with_open_bin path In_channel.input_all
          in
          Result.bind (Psn_obs.Json.of_string contents)
            Psn_obs.Shard_stats.of_json
        with
        | Ok st ->
            output ~json ~chrome_out st;
            `Ok ()
        | Error e -> `Error (false, Printf.sprintf "%s: %s" path e)
        | exception Sys_error msg -> `Error (false, msg))
    | None, Some sc ->
        let sinks =
          Option.map
            (fun _ ->
              Array.init Sharded_sc.default_detect.Sharded_sc.groups (fun _ ->
                  Psn_obs.Trace.create ()))
            trace_out
        in
        let report, exec =
          run_sharded_scenario ~seed ~shards ~horizon_s ?sinks sc
        in
        if not json then print_report report;
        (match Psn_sim.Exec.stats exec with
        | Some st -> output ~json ~chrome_out st
        | None -> ());
        Option.iter
          (fun path ->
            match sinks with
            | Some sinks ->
                write_file path
                  (Psn_obs.Export.chrome_string (Array.to_list sinks))
                  ~what:"merged trace"
            | None -> ())
          trace_out;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "shardstats" ~doc)
    Term.(
      ret
        (const run $ seed $ file $ run_live $ shards_arg $ horizon_s $ json
       $ chrome_out $ trace_out))

(* profile *)

let profile_cmd =
  let doc =
    "Run an experiment — or a sharded scenario ($(b,--run)) — under the \
     host-time profiler: per-phase wall time and GC deltas (psn-profile/1 \
     JSON). Sharded runs split into sharded.window (the window loop, \
     every shard in turn) and sharded.drain (the barrier) phases. Host \
     readings stay in the profile artifact; simulated-time traces are \
     unaffected."
  in
  let id =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id (see $(b,list)).")
  in
  let run_live =
    let sc, names = sharded_scenario_arg in
    Arg.(
      value
      & opt (some sc) None
      & info [ "run" ] ~docv:"SCENARIO"
          ~doc:
            ("Profile a sharded scenario run instead of an experiment: "
           ^ names ^ " on $(b,--shards) shards, 60 s horizon."))
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the JSON profile to $(docv) instead of stdout.")
  in
  let emit profile out =
    Fmt.pr "%a" Psn_obs.Profile.pp profile;
    match out with
    | None -> print_endline (Psn_obs.Profile.to_json profile)
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc (Psn_obs.Profile.to_json profile);
            output_char oc '\n');
        Fmt.epr "profile: %d phases -> %s@."
          (List.length (Psn_obs.Profile.phases profile))
          path
  in
  let run quick seed id run_live shards out =
    match (id, run_live) with
    | Some _, Some _ ->
        `Error (false, "pass either an experiment ID or --run, not both")
    | None, None ->
        `Error (false, "nothing to profile: pass an ID or --run SCENARIO")
    | Some id, None -> (
        match Psn_experiments.Experiments.find id with
        | None -> `Error (false, Printf.sprintf "unknown experiment %S" id)
        | Some e ->
            let profile = Psn_obs.Profile.create () in
            let outcome =
              Psn_obs.Profile.with_default profile (fun () ->
                  Psn_obs.Profile.phase "total" (fun () -> e.run ~quick ()))
            in
            Psn_experiments.Exp_common.print outcome;
            print_newline ();
            emit profile out;
            `Ok ())
    | None, Some sc ->
        let profile = Psn_obs.Profile.create () in
        let report, _exec =
          Psn_obs.Profile.with_default profile (fun () ->
              Psn_obs.Profile.phase "total" (fun () ->
                  run_sharded_scenario ~seed ~shards ~horizon_s:60 sc))
        in
        print_report report;
        emit profile out;
        `Ok ()
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(ret (const run $ quick $ seed $ id $ run_live $ shards_arg $ out))

(* detect: online Possibly/Definitely through the streaming frontier
   lattice. *)

let detect_cmd =
  let doc =
    "Online modal detection: run the streamed monitor workload and decide \
     Possibly/Definitely through the streaming frontier lattice \
     ($(b,--stream), the default) or the packed post-hoc oracle replayed \
     over the exact prefix the walk consumed ($(b,--posthoc)); \
     $(b,--differential) runs both and fails on any divergence.  Reports \
     the bounded-memory evidence (peak live cuts / events) and the \
     engine work (events, barrier windows) either way."
  in
  let monitors =
    Arg.(
      value & opt (positive "monitor count") 3
      & info [ "monitors" ] ~docv:"N"
          ~doc:
            "Monitor processes.  The cut lattice is exponential in \
             concurrency; keep this small.")
  in
  let window_ms =
    Arg.(
      value & opt (positive "window") 50
      & info [ "window" ] ~docv:"MS"
          ~doc:"Checker flush window (the hold-back flush period).")
  in
  let horizon_s_small =
    Arg.(
      value & opt (positive "horizon") 120
      & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Simulated duration.")
  in
  let cap =
    Arg.(
      value & opt (positive "cap") 200_000
      & info [ "cap" ] ~docv:"CUTS"
          ~doc:"Live-slab width bound; past it the walk freezes undecided.")
  in
  let stream_flag =
    Arg.(
      value & flag
      & info [ "stream" ] ~doc:"Report the streaming verdicts (default).")
  in
  let posthoc =
    Arg.(
      value & flag
      & info [ "posthoc" ]
          ~doc:
            "Report the packed post-hoc verdicts over the consumed prefix \
             instead.")
  in
  let differential =
    Arg.(
      value & flag
      & info [ "differential" ]
          ~doc:
            "Run both engines and fail unless verdicts and committed-cut \
             counts agree.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print a psn-detect/1 JSON summary to stdout.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the merged per-group trace (JSONL) to $(docv).")
  in
  let run seed shards horizon_s window_ms monitors cap stream_flag posthoc
      differential json trace_out =
    if posthoc && stream_flag then
      `Error (false, "pass --stream or --posthoc, not both")
    else begin
      let groups = max 1 (min 2 monitors) in
      let cfg =
        {
          Sharded_sc.stream_default with
          s_monitors = monitors;
          s_cap = cap;
          s_detect =
            {
              Sharded_sc.stream_default.Sharded_sc.s_detect with
              groups;
              flush_period = Sim_time.of_ms window_ms;
              horizon = Sim_time.of_sec horizon_s;
            };
        }
      in
      let dc = cfg.Sharded_sc.s_detect in
      let lookahead = Psn_sim.Delay_model.min_delay dc.Sharded_sc.delay in
      let exec =
        if shards = 1 then Psn_sim.Exec.single ~seed ()
        else Psn_sim.Exec.sharded ~seed ~shards ~lookahead ()
      in
      let sinks =
        Option.map
          (fun _ -> Array.init groups (fun _ -> Psn_obs.Trace.create ()))
          trace_out
      in
      let need_packed = posthoc || differential in
      let captured = Array.make monitors [] in
      let on_observe =
        if need_packed then
          Some
            (fun ~pid ~stamp ->
              captured.(pid) <- Array.copy stamp :: captured.(pid))
        else None
      in
      let r, det = Sharded_sc.stream ~cfg ?sinks ?on_observe exec in
      let packed =
        if not need_packed then None
        else begin
          let stamps =
            Array.map (fun l -> Array.of_list (List.rev l)) captured
          in
          let writes =
            Array.init monitors (fun i ->
                Psn_detection.Streaming_detector.updates det
                |> List.filter
                     (fun (u : Psn_detection.Observation.update) -> u.src = i)
                |> List.sort
                     (fun (a : Psn_detection.Observation.update) b ->
                       Stdlib.compare a.seq b.seq)
                |> List.map (fun (u : Psn_detection.Observation.update) ->
                       (u.var, u.value))
                |> Array.of_list)
          in
          let holds =
            Psn_lattice.Modal.holds_of_expr ~init:[] ~updates:writes
              (Sharded_sc.stream_predicate cfg)
          in
          Some
            ( Psn_lattice.Modal.possibly stamps ~holds,
              Psn_lattice.Modal.definitely stamps ~holds,
              Psn_lattice.Lattice.count_consistent stamps )
        end
      in
      let diff_ok =
        match packed with
        | None -> None
        | Some (p, d, c) ->
            Some
              (r.Sharded_sc.sr_possibly = p
              && r.Sharded_sc.sr_definitely = d
              &&
              match (r.Sharded_sc.sr_committed, c) with
              | Psn_lattice.Packed.Exact a, Psn_lattice.Packed.Exact b -> a = b
              | _ -> true (* capped on either side: counts are lower bounds *))
      in
      if differential && diff_ok = Some false then
        `Error (false, "differential: streaming and packed verdicts DIVERGED")
      else begin
        let mode, (poss, defi, committed) =
          if posthoc then ("posthoc", Option.get packed)
          else
            ( "stream",
              ( r.Sharded_sc.sr_possibly,
                r.Sharded_sc.sr_definitely,
                r.Sharded_sc.sr_committed ) )
        in
        let committed_n, committed_exact =
          match committed with
          | Psn_lattice.Packed.Exact n -> (n, true)
          | Psn_lattice.Packed.At_least n -> (n, false)
        in
        let edge_kind (e : Psn_detection.Streaming_detector.edge) =
          match e.edge with
          | Psn_lattice.Streaming.Possibly_holds l -> ("possibly", Some l)
          | Psn_lattice.Streaming.Definitely_holds l -> ("definitely", Some l)
          | Psn_lattice.Streaming.Possibly_fails -> ("possibly_fails", None)
          | Psn_lattice.Streaming.Definitely_fails -> ("definitely_fails", None)
        in
        if json then begin
          let open Psn_obs.Json in
          let opt_bool = function Some b -> Bool b | None -> Null in
          let doc =
            Obj
              ([
                 ("format", Str "psn-detect/1");
                 ("mode", Str mode);
                 ("seed", Int (Int64.to_int seed));
                 ("shards", Int shards);
                 ("monitors", Int monitors);
                 ("window_ms", Int window_ms);
                 ("horizon_s", Int horizon_s);
                 ("cap", Int cap);
                 ("events", Int r.Sharded_sc.sr_observed);
                 ("updates", Int r.Sharded_sc.sr_updates);
                 ("possibly", opt_bool poss);
                 ("definitely", opt_bool defi);
                 ("committed_cuts", Int committed_n);
                 ("committed_exact", Bool committed_exact);
                 ("peak_live_cuts", Int r.Sharded_sc.sr_peak_live_cuts);
                 ("peak_live_events", Int r.Sharded_sc.sr_peak_live_events);
                 ("messages", Int r.Sharded_sc.sr_messages);
                 ("dropped", Int r.Sharded_sc.sr_dropped);
                 ("sim_events", Int (Psn_sim.Exec.events_processed exec));
                 ("windows", Int (Psn_sim.Exec.windows exec));
                 ( "edges",
                   List
                     (List.map
                        (fun (e : Psn_detection.Streaming_detector.edge) ->
                          let kind, level = edge_kind e in
                          Obj
                            [
                              ("kind", Str kind);
                              ( "level",
                                match level with
                                | Some l -> Int l
                                | None -> Null );
                              ("at_ns", Int (Sim_time.to_ns e.at));
                            ])
                        r.Sharded_sc.sr_edges) );
               ]
              @
              match diff_ok with
              | Some ok -> [ ("differential", Str (if ok then "ok" else "diverged")) ]
              | None -> [])
          in
          print_endline (to_string doc)
        end
        else begin
          let pp_verdict ppf = function
            | Some true -> Fmt.string ppf "true"
            | Some false -> Fmt.string ppf "false"
            | None -> Fmt.string ppf "undecided"
          in
          Fmt.pr "mode             : %s@." mode;
          Fmt.pr "monitors         : %d  shards: %d  window: %d ms@." monitors
            shards window_ms;
          Fmt.pr "events observed  : %d  (updates emitted %d)@."
            r.Sharded_sc.sr_observed r.Sharded_sc.sr_updates;
          Fmt.pr "possibly         : %a@." pp_verdict poss;
          Fmt.pr "definitely       : %a@." pp_verdict defi;
          Fmt.pr "committed cuts   : %s%d@."
            (if committed_exact then "" else ">= ")
            committed_n;
          Fmt.pr "peak live cuts   : %d@." r.Sharded_sc.sr_peak_live_cuts;
          Fmt.pr "peak live events : %d@." r.Sharded_sc.sr_peak_live_events;
          Fmt.pr "messages         : %d (dropped %d)@." r.Sharded_sc.sr_messages
            r.Sharded_sc.sr_dropped;
          Fmt.pr "engine events    : %d (windows %d)@."
            (Psn_sim.Exec.events_processed exec)
            (Psn_sim.Exec.windows exec);
          Fmt.pr "verdict edges    : %d@."
            (List.length r.Sharded_sc.sr_edges);
          List.iter
            (fun (e : Psn_detection.Streaming_detector.edge) ->
              let kind, level = edge_kind e in
              Fmt.pr "  %-16s %s at %a@." kind
                (match level with
                | Some l -> Printf.sprintf "level=%d" l
                | None -> "(finish)")
                Sim_time.pp e.at)
            r.Sharded_sc.sr_edges;
          match diff_ok with
          | Some true -> Fmt.pr "differential     : streaming == packed@."
          | Some false ->
              Fmt.pr "differential     : DIVERGED@." (* unreachable: errored *)
          | None -> ()
        end;
        Option.iter
          (fun path ->
            match sinks with
            | Some sinks ->
                let oc = open_out path in
                Fun.protect
                  ~finally:(fun () -> close_out oc)
                  (fun () ->
                    output_string oc
                      (Psn_obs.Export.merged_jsonl (Array.to_list sinks)));
                Fmt.epr "detect: merged trace -> %s@." path
            | None -> ())
          trace_out;
        `Ok ()
      end
    end
  in
  Cmd.v (Cmd.info "detect" ~doc)
    Term.(
      ret
        (const run $ seed $ shards_arg $ horizon_s_small $ window_ms $ monitors
       $ cap $ stream_flag $ posthoc $ differential $ json $ trace_out))

let main =
  let doc =
    "Execution and time models for pervasive sensor networks: simulator, \
     strobe clocks, predicate detection, and claim-reproduction experiments."
  in
  Cmd.group
    (Cmd.info "psn-sim" ~version:"1.0.0" ~doc)
    [
      list_cmd; experiment_cmd; trace_cmd; analyze_cmd; profile_cmd;
      shardstats_cmd; detect_cmd; hall_cmd; office_cmd; hospital_cmd;
      habitat_cmd; banking_cmd; lattice_cmd;
    ]

let () = exit (Cmd.eval main)
