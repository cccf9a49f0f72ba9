(* Physical-stamp hold-back checker, written once against [Exec] so the
   single-queue oracle and the sharded engine execute the same
   construction (see the .mli for the determinism argument).

   Cross-domain discipline, for every mutable piece:

     - the front end (clocks, name tables, ground truth, the checker's
       pending arena) follows {!Holdback}'s discipline;
     - vector clocks, stamp planes, and sub-checker state (pending
       arena, compiled residual env, group verdict) are written only by
       events of that group, which the substrate runs on one shard (one
       domain at a time);
     - the verdict tree, edge queues, and occurrence list are written
       only by checker events (shard 0);
     - the checker reads plane stamps only at delivery, which the window
       barrier places at least one happens-before edge after the source
       wrote them.  A source shard
       may grow its plane concurrently with a checker read of an older
       stamp; growth blits, so every stamp from before the barrier is
       visible whichever backing array the read lands on, and the live
       length only grows, so the handle check cannot spuriously fail.

   Checker backends (selected with [?checker], default [Auto]):

     - [Interp]: the PR 7 path — Hashtbl env, [Expr.eval_bool] per
       applied update (the lookup closure now hoisted to one per
       checker, not one per update).  Kept as the differential oracle.
     - [Compiled]: same central evaluation through a
       [Psn_predicates.Compiled] program over int slots.  Handles any
       predicate.  A linear comparison (the hall's sum) costs O(1) per
       applied update, read off the program's running sum; any other
       predicate re-evaluates the whole program, but without lookups,
       boxing, or closure calls.
     - [Partitioned] (conjunctive predicates only): every group runs a
       sub-checker on its own shard, holding the compiled residual of
       its conjuncts.  Each update's arrival is mirrored to the source
       group's sub-checker, which replays the central hold-back
       schedule locally and publishes only rising/falling *edges* of
       its group verdict to the checker over the substrate's raw
       channel; the checker folds edges through a flat AND-combining
       tree.  An applied update then costs O(1) at the sub-checker
       (residual eval over the group's variables) plus O(log groups)
       at the fold — independent of n.

   Partitioned timing (P = flush_period, H = hold, in ns):

     - the checker flushes at k*P and applies arrivals with
       recv <= k*P - H;
     - group g's sub-checker flushes at F_k = k*P - H + 1 and applies
       arrivals with recv <= F_k - 1 = k*P - H — the same batch
       restricted to group g, in the same (stamp, src, seq) order, so
       its edge stream per flush matches the central batch exactly;
     - edges post at k*P - 1: they arrive after every source's
       F_k-time events and before the k*P flush, and the post spans
       (k*P - 1) - F_k = H - 2 >= lookahead (admission requires
       H >= min_delay + 2), which satisfies the mailbox rings'
       conservative-window contract on any shard count.

   Mirror deliveries reuse the transport's send-time draws
   ([send_timed]): loss and delay come from the source's own stream, so
   the sub-checker sees exactly the arrivals the checker sees, and the
   schedule stays a pure function of the seed.  Raw-channel events emit
   no trace records and no transport metrics, so the merged trace bytes
   of a run are identical across all three backends.

   Semantic note: [Partitioned] evaluates every group's residual, where
   the central evaluators short-circuit across groups.  Verdicts agree
   (AND is total over safe-false conjuncts), but a predicate whose
   *typability* depends on cross-group short-circuiting (a false
   conjunct masking a type error in a later group) would raise here.
   Detector updates are int-valued, so residuals of admitted
   conjunctive predicates cannot hit this. *)

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
module Shard_net = Psn_network.Shard_net

type cfg = {
  n : int;
  groups : int;
  group_of : int -> int;
  eps : Sim_time.t;
  hold : Sim_time.t;
  flush_period : Sim_time.t;
  causal_stamps : bool;
}

type checker = Interp | Compiled | Partitioned | Auto

(* Per-group verdict-edge queue, checker-local.  Four int lanes per
   edge: stamp, src, seq (the applied update that flipped the group
   verdict) and the new verdict.  FIFO; resets to offset 0 whenever it
   drains, so steady state never grows. *)
type edge_queue = {
  mutable eq_buf : int array;
  mutable eq_head : int;
  mutable eq_len : int;
}

let edge_stride = 4

let push_edge eq ~stamp ~src ~seq ~verdict =
  if eq.eq_head = eq.eq_len then begin
    eq.eq_head <- 0;
    eq.eq_len <- 0
  end;
  let need = eq.eq_len + edge_stride in
  if need > Array.length eq.eq_buf then begin
    let cap = ref (max (edge_stride * 16) (Array.length eq.eq_buf)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Array.make !cap 0 in
    Array.blit eq.eq_buf 0 nb 0 eq.eq_len;
    eq.eq_buf <- nb
  end;
  let b = eq.eq_buf and o = eq.eq_len in
  b.(o) <- stamp;
  b.(o + 1) <- src;
  b.(o + 2) <- seq;
  b.(o + 3) <- verdict;
  eq.eq_len <- o + edge_stride

let edge_at_head eq ~stamp ~src ~seq =
  eq.eq_head < eq.eq_len
  && eq.eq_buf.(eq.eq_head) = stamp
  && eq.eq_buf.(eq.eq_head + 1) = src
  && eq.eq_buf.(eq.eq_head + 2) = seq

let pop_edge eq =
  let v = eq.eq_buf.(eq.eq_head + 3) in
  eq.eq_head <- eq.eq_head + edge_stride;
  if eq.eq_head = eq.eq_len then begin
    eq.eq_head <- 0;
    eq.eq_len <- 0
  end;
  v

(* A compiled program, its int-slot env, and the lazily memoized
   (src * max_vars + var_idx) -> slot table (-2 = not looked up yet). *)
type program = { prog : Compiled.t; cenv : Compiled.env; slots : int array }

let program ~n e =
  let prog = Compiled.compile e in
  {
    prog;
    cenv = Compiled.create_env prog;
    slots = Array.make (n * Holdback.max_vars) (-2);
  }

(* The name table is written at the source's first emit; both the
   sub-checker (same shard) and the checker (after a barrier) read it
   only for updates that were emitted, so the entry is always
   populated. *)
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

let eval p = Holdback.holds Compiled.eval_bool p.prog p.cenv

(* Group sub-checker: compiled residual of the group's conjuncts plus a
   local hold-back arena mirroring the checker's.  Group-local. *)
type sub = {
  sub_prog : program;
  sub_pend : Pending_arena.t;
  mutable sub_holds : bool;
}

type impl =
  | Interp_impl of {
      env : (Expr.var, Value.t) Hashtbl.t;
      env_fn : Expr.var -> Value.t option; (* hoisted: one closure, ever *)
    }
  | Compiled_impl of program
  | Partitioned_impl of {
      tree : Verdict_tree.t;
      edges : edge_queue array;    (* per group; checker-local *)
      subs : sub option array;     (* per group; group-local *)
      c_edges : Metrics.counter array; (* per group *)
    }

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

(* Virtual raw-channel addresses, past the transport's pid range
   [0 .. n] (sources plus checker). *)
let sub_addr cfg g = cfg.n + 1 + g
let edge_addr cfg g = cfg.n + 1 + cfg.groups + g

let create ?loss ?sinks ?(checker = Auto) exec ~cfg ~delay ~predicate () =
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
  let hold_ns = Sim_time.to_ns cfg.hold in
  let period_ns = Sim_time.to_ns cfg.flush_period in
  (* Partitioned admission, from substrate-invariant configuration only
     (never from the shard count or the engine's lookahead, which would
     let the oracle and a sharded run pick different backends): the
     predicate decomposes into per-source conjuncts, and the hold-back
     leaves room for the edge protocol's H - 2 post span to cover the
     transport's minimum delay — the largest lookahead any engine this
     transport can legally run on would promise. *)
  let conj = Expr.conjuncts predicate in
  let min_delay_ns = Sim_time.to_ns (Psn_sim.Delay_model.min_delay delay) in
  let partitionable =
    match conj with
    | Some parts ->
        List.for_all (fun (loc, _) -> loc >= 0 && loc < n) parts
        && hold_ns >= min_delay_ns + 2
    | None -> false
  in
  let mode =
    match checker with
    | Interp -> `Interp
    | Compiled -> `Compiled
    | Partitioned ->
        if not partitionable then
          invalid_arg
            "Sharded_detector.create: Partitioned needs a conjunctive \
             predicate over in-range locations and hold >= min_delay + 2";
        `Partitioned
    | Auto -> if partitionable then `Partitioned else `Compiled
  in
  let impl =
    match mode with
    | `Interp ->
        let env = Hashtbl.create 64 in
        Interp_impl { env; env_fn = Hashtbl.find_opt env }
    | `Compiled -> Compiled_impl (program ~n predicate)
    | `Partitioned ->
        let parts = Option.get conj in
        let residuals = Array.make cfg.groups None in
        List.iter
          (fun (loc, c) ->
            let g = cfg.group_of loc in
            residuals.(g) <-
              (match residuals.(g) with
              | None -> Some c
              | Some acc -> Some (Expr.And (acc, c))))
          parts;
        let subs =
          Array.map
            (fun residual ->
              match residual with
              | None -> None
              | Some r ->
                  Some
                    {
                      sub_prog = program ~n r;
                      sub_pend = Pending_arena.create ();
                      sub_holds = Holdback.holds_expr (fun _ -> None) r;
                    })
            residuals
        in
        let init_leaves =
          Array.map
            (fun s -> match s with Some s -> s.sub_holds | None -> true)
            subs
        in
        let tree = Verdict_tree.create ~leaves:cfg.groups init_leaves in
        let edges =
          Array.init cfg.groups (fun _ ->
              { eq_buf = [||]; eq_head = 0; eq_len = 0 })
        in
        let c_edges =
          Array.init cfg.groups (fun g ->
              Metrics.counter
                (Engine.metrics (Exec.engine exec ~group:g))
                "sharded_detector.edges")
        in
        Partitioned_impl { tree; edges; subs; c_edges }
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
  let net = Holdback.net hb in
  (* Partitioned plumbing: the raw channel carries update mirrors to the
     group sub-checkers and verdict edges back to the checker. *)
  (match t.impl with
  | Partitioned_impl p ->
      Shard_net.set_raw_handler net (fun ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ->
          if dst >= edge_addr cfg 0 then begin
            (* Verdict edge; runs on the checker's shard. *)
            let g = dst - edge_addr cfg 0 in
            push_edge p.edges.(g) ~stamp:w0 ~src:w1 ~seq:w2 ~verdict:w3
          end
          else begin
            (* Update mirror; runs on the source group's shard. *)
            let g = dst - sub_addr cfg 0 in
            match p.subs.(g) with
            | Some sub ->
                Holdback.add_mirror sub.sub_pend
                  ~recv:(Engine.now (Exec.engine exec ~group:g))
                  ~w0 ~w1 ~w2 ~w3 ~w4
            | None -> ()
          end);
      (* Sub-checker flushes at F_k = k*P - H + 1 replay the central
         hold-back schedule one tick early, so each flush's edges can
         post at k*P - 1 — before the checker's k*P flush and H - 2
         past the flush itself. *)
      let k0 = max 1 ((hold_ns + period_ns - 1) / period_ns) in
      let start = Sim_time.of_ns (((k0 * period_ns) - hold_ns) + 1) in
      Array.iteri
        (fun g sub_opt ->
          match sub_opt with
          | None -> ()
          | Some sub ->
              let pend = sub.sub_pend and code = sub.sub_prog in
              Holdback.every hb ~group:g ~start ~lag:(Sim_time.of_ns 1) pend
                (fun ~now m ->
                  let at = Sim_time.of_ns (Sim_time.to_ns now + hold_ns - 2) in
                  for i = 0 to m - 1 do
                    let src = Pending_arena.src pend i in
                    let var_idx = Pending_arena.var_idx pend i in
                    let slot = find_slot code hb ~src ~var_idx in
                    if slot >= 0 then begin
                      Compiled.set_int code.cenv slot
                        (Pending_arena.value pend i);
                      let v = eval code in
                      if v <> sub.sub_holds then begin
                        sub.sub_holds <- v;
                        Metrics.tick p.c_edges.(g);
                        Shard_net.post_raw net ~src_group:g ~dst_group:0 ~at
                          ~dst:(edge_addr cfg g)
                          ~w0:(Pending_arena.stamp pend i)
                          ~w1:src
                          ~w2:(Pending_arena.seq pend i)
                          ~w3:(if v then 1 else 0) ~w4:0
                      end
                    end
                  done))
        p.subs
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
              Holdback.holds_expr env_fn t.predicate
          | Compiled_impl p ->
              let slot = find_slot p hb ~src ~var_idx in
              if slot >= 0 then Compiled.set_int p.cenv slot value;
              eval p
          | Partitioned_impl { tree; edges; _ } ->
              let g = cfg.group_of src in
              let eq = edges.(g) in
              if edge_at_head eq ~stamp ~src ~seq then
                Verdict_tree.set tree g (pop_edge eq = 1);
              Verdict_tree.root tree
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

let checker_kind t =
  match t.impl with
  | Interp_impl _ -> Interp
  | Compiled_impl _ -> Compiled
  | Partitioned_impl _ -> Partitioned

let emit t ~src ~var ~value =
  let lane = Holdback.admit t.hb ~src ~var ~value in
  let g = t.cfg.group_of src in
  let vh =
    if t.cfg.causal_stamps then
      Vector_clock.tick_into t.planes.(g) t.vclocks.(src)
    else -1
  in
  (* Mirror surviving arrivals into the group's sub-checker. *)
  let mirror =
    match t.impl with
    | Partitioned_impl { subs; _ } when Option.is_some subs.(g) ->
        sub_addr t.cfg g
    | _ -> -1
  in
  Holdback.send t.hb ~src ~lane ~value ~vh
    ~tick:(Trace.Clock_tick { clock = "physical" }) ~mirror

let updates t = Holdback.updates t.hb
let occurrences t = List.rev t.occs

let frontier t =
  match t.checker_vc with Some vc -> Some (Vector_clock.read vc) | None -> None

let plane t ~group =
  if t.cfg.causal_stamps then Some t.planes.(group) else None
