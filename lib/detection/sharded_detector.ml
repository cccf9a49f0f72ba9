(* Physical-stamp hold-back checker, written once against [Exec] so the
   single-queue oracle and the sharded engine execute the same
   construction (see the .mli for the determinism argument).

   Group locality, for every mutable piece (the rule that makes the
   order of a round's turns unobservable):

     - the front end (clocks, name tables, ground truth, the checker's
       pending arena) follows {!Holdback}'s rule;
     - vector clocks and stamp planes are written only by events of
       their group, which the substrate places on one shard;
     - the checker's env, verdict and occurrence list are written only
       by checker events (shard 0);
     - the checker reads plane stamps only at delivery, at least a
       lookahead after the source wrote them, and a written stamp never
       changes.

   Checker backends (selected with [?checker], default [Compiled]):

     - [Interp]: the PR 7 path — Hashtbl env, [Expr.eval_bool] per
       applied update (the lookup closure now hoisted to one per
       checker, not one per update).  Kept as the differential oracle.
     - [Compiled]: the same central evaluation through a
       [Psn_predicates.Compiled] program over int slots.  Handles any
       predicate.  A linear comparison (the hall's sum) costs O(1) per
       applied update, read off the program's running sum; a
       conjunction (calm's ∧ᵢ loadᵢ <= limit) re-runs only the
       conjuncts that read the updated slot and answers from its
       conjunct count; any other predicate re-evaluates the whole
       program, but without lookups, boxing, or closure calls. *)

module Engine = Psn_sim.Engine
module Exec = Psn_sim.Exec
module Sim_time = Psn_sim.Sim_time
module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics
module Expr = Psn_predicates.Expr
module Compiled = Psn_predicates.Compiled
module Value = Psn_world.Value
module Vector_clock = Psn_clocks.Vector_clock
module Stamp_plane = Psn_clocks.Stamp_plane

type cfg = {
  n : int;
  groups : int;
  group_of : int -> int;
  eps : Sim_time.t;
  hold : Sim_time.t;
  flush_period : Sim_time.t;
  causal_stamps : bool;
}

type checker = Interp | Compiled

(* A compiled program, its int-slot env, and the lazily memoized
   (src * max_vars + var_idx) -> slot table (-2 = not looked up yet). *)
type program = { prog : Compiled.t; cenv : Compiled.env; slots : int array }

(* The name table is written at the source's first emit; the checker
   reads it (at delivery, at least a lookahead later) only for updates
   that were emitted, so the entry is always populated. *)
let find_slot p hb ~src ~var_idx =
  let key = (src * Holdback.max_vars) + var_idx in
  let s = p.slots.(key) in
  if s <> -2 then s
  else begin
    let name = Holdback.var_name hb ~src ~var_idx in
    let s = Compiled.slot p.prog { Expr.name; loc = src } in
    p.slots.(key) <- s;
    s
  end

type impl =
  | Interp_impl of {
      env : (Expr.var, Value.t) Hashtbl.t;
      env_fn : Expr.var -> Value.t option; (* hoisted: one closure, ever *)
    }
  | Compiled_impl of program

type t = {
  cfg : cfg;
  hb : Holdback.t;
  vclocks : Vector_clock.t array;       (* causal_stamps only *)
  planes : Stamp_plane.t array;         (* per group; causal_stamps only *)
  checker_vc : Vector_clock.t option;
  sinks : Trace.sink array option;
  predicate : Expr.t;
  impl : impl;
  mutable holds : bool;
  mutable occs : Occurrence.t list;     (* newest first *)
  c_occurrences : Metrics.counter;
}

let create ?loss ?sinks ?(checker = Compiled) exec ~cfg ~delay ~predicate () =
  Psn_obs.Profile.phase "detector.setup" @@ fun () ->
  let hb =
    Holdback.create ?loss ?sinks exec ~who:"Sharded_detector" ~label:"detector"
      ~updates_metric:"sharded_detector.updates" ~n:cfg.n ~groups:cfg.groups
      ~group_of:cfg.group_of ~eps:cfg.eps ~hold:cfg.hold
      ~flush_period:cfg.flush_period ~delay
  in
  let n = cfg.n in
  let planes =
    if cfg.causal_stamps then
      Array.init cfg.groups (fun _ -> Stamp_plane.create ~n:(n + 1) ())
    else [||]
  in
  let vclocks =
    if cfg.causal_stamps then
      Array.init n (fun pid -> Vector_clock.create ~n:(n + 1) ~me:pid)
    else [||]
  in
  let c_occurrences =
    Metrics.counter
      (Engine.metrics (Exec.engine exec ~group:0))
      "sharded_detector.occurrences"
  in
  let impl =
    match checker with
    | Interp ->
        let env = Hashtbl.create 64 in
        Interp_impl { env; env_fn = Hashtbl.find_opt env }
    | Compiled ->
        let prog = Compiled.compile predicate in
        Compiled_impl
          {
            prog;
            cenv = Compiled.create_env prog;
            slots = Array.make (n * Holdback.max_vars) (-2);
          }
  in
  let t =
    {
      cfg;
      hb;
      vclocks;
      planes;
      checker_vc =
        (if cfg.causal_stamps then Some (Vector_clock.create ~n:(n + 1) ~me:n)
         else None);
      sinks;
      predicate;
      impl;
      holds = false;
      occs = [];
      c_occurrences;
    }
  in
  (* Checker delivery: merge the causal stamp, then hold back. *)
  Holdback.on_arrival hb (fun ~src ~seq:_ ~vh ->
      match t.checker_vc with
      | Some vc when vh >= 0 ->
          Vector_clock.receive_from t.planes.(cfg.group_of src) vc vh
      | _ -> ());
  (* The checker's flush applies each batch in the arena's (stamp, src,
     seq) order. *)
  let pend = Holdback.pending hb in
  let two_eps = 2 * Sim_time.to_ns cfg.eps in
  Holdback.on_flush hb (fun ~now m ->
      for i = 0 to m - 1 do
        let src = Pending_arena.src pend i in
        let seq = Pending_arena.seq pend i in
        let var_idx = Pending_arena.var_idx pend i in
        let value = Pending_arena.value pend i in
        let stamp = Pending_arena.stamp pend i in
        let var_name = Holdback.var_name hb ~src ~var_idx in
        (match t.sinks with
        | Some s ->
            Trace.emit s.(0) ~time:now ~pid:t.cfg.n
              (Trace.Detector_update { var = var_name; seq })
        | None -> ());
        let now_holds =
          match t.impl with
          | Interp_impl { env; env_fn } ->
              Hashtbl.replace env
                { Expr.name = var_name; loc = src }
                (Value.Int value);
              Expr.holds ~env:env_fn t.predicate
          | Compiled_impl p ->
              let slot = find_slot p hb ~src ~var_idx in
              if slot >= 0 then Compiled.set_int p.cenv slot value;
              Compiled.holds p.prog p.cenv
        in
        if now_holds && not t.holds then begin
          (* Race bin: an adjacent applied update from another process
             within the clock sync uncertainty could reorder the rise. *)
          let raced j =
            j >= 0 && j < m
            && Pending_arena.src pend j <> src
            && abs (Pending_arena.stamp pend j - stamp) < two_eps
          in
          let verdict =
            if raced (i - 1) || raced (i + 1) then Occurrence.Borderline
            else Occurrence.Positive
          in
          Metrics.tick t.c_occurrences;
          let sense = Pending_arena.sense pend i in
          (match t.sinks with
          | Some s ->
              Trace.emit s.(0) ~time:now ~pid:t.cfg.n
                (Trace.Detector_occurrence
                   {
                     verdict =
                       (match verdict with
                       | Occurrence.Positive -> "detect"
                       | Occurrence.Borderline -> "borderline");
                     window_ns = Sim_time.to_ns now - sense;
                   })
          | None -> ());
          let u =
            {
              Observation.src;
              var = var_name;
              value = Value.Int value;
              seq;
              sense_time = Sim_time.of_ns sense;
            }
          in
          t.occs <-
            { Occurrence.detect_time = now; trigger = u; verdict } :: t.occs
        end;
        t.holds <- now_holds
      done);
  t

let net t = Holdback.net t.hb

let emit t ~src ~var ~value =
  let lane = Holdback.admit t.hb ~src ~var ~value in
  let vh =
    if t.cfg.causal_stamps then
      Vector_clock.tick_into t.planes.(t.cfg.group_of src) t.vclocks.(src)
    else -1
  in
  ignore
    (Holdback.send t.hb ~src ~lane ~value ~vh
       ~tick:(Trace.Clock_tick { clock = "physical" })
      : int)

let updates t = Holdback.updates t.hb
let occurrences t = List.rev t.occs

let frontier t =
  match t.checker_vc with Some vc -> Some (Vector_clock.read vc) | None -> None
