(* Tests for psn_middleware: Chandy–Lamport snapshots, causal broadcast,
   Ricart–Agrawala mutual exclusion, and the matrix-clock stable log —
   the Appendix A classic uses of logical/vector time. *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Snapshot = Psn_middleware.Snapshot
module Causal_broadcast = Psn_middleware.Causal_broadcast
module Mutex = Psn_middleware.Mutex
module Stable_log = Psn_middleware.Stable_log
module Rng = Psn_util.Rng

let ms = Sim_time.of_ms

let delay_small =
  Psn_sim.Delay_model.bounded_uniform ~min:(ms 5) ~max:(ms 50)

(* --- Chandy–Lamport snapshots --- *)

(* Money-conservation harness: n accounts transfer random amounts; any
   consistent snapshot must conserve the total (states + in-flight). *)
let run_money_snapshot ~seed ~n ~transfers ~snapshot_at =
  let engine = Engine.create ~seed () in
  let rng = Rng.create ~seed () in
  let balances = Array.make n 1000 in
  let snap = ref None in
  let sys =
    Snapshot.create engine ~n ~delay:delay_small
      ~local_state:(fun i -> balances.(i))
      ~apply:(fun ~dst ~src:_ amount -> balances.(dst) <- balances.(dst) + amount)
      ()
  in
  Snapshot.on_complete sys (fun s -> snap := Some s);
  (* Random transfers spread over time. *)
  for k = 1 to transfers do
    ignore
      (Engine.schedule_at engine
         (ms (10 * k))
         (fun () ->
           let src = Rng.int rng n in
           let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
           let amount = 1 + Rng.int rng 50 in
           if balances.(src) >= amount then begin
             balances.(src) <- balances.(src) - amount;
             Snapshot.send_app sys ~src ~dst amount
           end))
  done;
  ignore
    (Engine.schedule_at engine (ms snapshot_at) (fun () ->
         Snapshot.initiate sys ~by:0));
  Engine.run engine;
  (!snap, n * 1000)

let test_snapshot_conserves_money () =
  List.iter
    (fun seed ->
      match run_money_snapshot ~seed ~n:4 ~transfers:200 ~snapshot_at:1000 with
      | Some snap, total ->
          let state_sum = Array.fold_left ( + ) 0 snap.Snapshot.states in
          let channel_sum =
            Array.fold_left
              (fun acc row ->
                Array.fold_left
                  (fun acc msgs -> acc + List.fold_left ( + ) 0 msgs)
                  acc row)
              0 snap.Snapshot.channels
          in
          Alcotest.(check int) "conservation" total (state_sum + channel_sum)
      | None, _ -> Alcotest.fail "snapshot did not complete")
    [ 3L; 7L; 11L; 19L ]

let test_snapshot_captures_in_flight () =
  (* The initiator (0) records at t=20.  Process 1, which has not yet seen
     the marker (it lands at t=120), debits itself at t=30 and sends the
     amount to 0; the transfer reaches 0 at t=130 — after 0's record and
     before 1's marker closes the (1,0) channel — so it must appear as an
     in-flight message of the cut. *)
  let engine = Engine.create ~seed:5L () in
  let balances = Array.make 2 100 in
  let snap = ref None in
  let slow =
    Psn_sim.Delay_model.bounded_uniform ~min:(ms 100) ~max:(ms 100)
  in
  let sys =
    Snapshot.create engine ~n:2 ~delay:slow
      ~local_state:(fun i -> balances.(i))
      ~apply:(fun ~dst ~src:_ a -> balances.(dst) <- balances.(dst) + a)
      ()
  in
  Snapshot.on_complete sys (fun s -> snap := Some s);
  ignore (Engine.schedule_at engine (ms 20) (fun () -> Snapshot.initiate sys ~by:0));
  ignore
    (Engine.schedule_at engine (ms 30) (fun () ->
         balances.(1) <- balances.(1) - 40;
         Snapshot.send_app sys ~src:1 ~dst:0 40));
  Engine.run engine;
  match !snap with
  | Some s ->
      Alcotest.(check int) "initiator pre-transfer" 100 s.Snapshot.states.(0);
      Alcotest.(check int) "sender already debited" 60 s.Snapshot.states.(1);
      Alcotest.(check (list int)) "in flight" [ 40 ] s.Snapshot.channels.(1).(0);
      let total =
        Array.fold_left ( + ) 0 s.Snapshot.states
        + List.fold_left ( + ) 0 s.Snapshot.channels.(1).(0)
      in
      Alcotest.(check int) "conserved" 200 total
  | None -> Alcotest.fail "no snapshot"

let test_snapshot_reinitiate () =
  let engine = Engine.create () in
  let sys =
    Snapshot.create engine ~n:2 ~delay:delay_small
      ~local_state:(fun _ -> 0)
      ~apply:(fun ~dst:_ ~src:_ () -> ())
      ()
  in
  let count = ref 0 in
  Snapshot.on_complete sys (fun _ -> incr count);
  Snapshot.initiate sys ~by:0;
  Alcotest.check_raises "double initiate"
    (Invalid_argument "Snapshot.initiate: snapshot already running") (fun () ->
      Snapshot.initiate sys ~by:1);
  Engine.run engine;
  (* Second snapshot after the first completes. *)
  Snapshot.initiate sys ~by:1;
  Engine.run engine;
  Alcotest.(check int) "two snapshots" 2 !count

(* --- Causal broadcast --- *)

let test_causal_order_preserved () =
  (* 0 broadcasts m1; on delivering m1, 1 broadcasts m2 (causally after).
     Every process must deliver m1 before m2, whatever the delays. *)
  List.iter
    (fun seed ->
      let engine = Engine.create ~seed () in
      let order = Array.make 3 [] in
      let cb = ref None in
      let deliver ~dst ~src:_ name =
        order.(dst) <- name :: order.(dst);
        if name = "m1" && dst = 1 then
          match !cb with
          | Some cb -> Causal_broadcast.broadcast cb ~src:1 "m2"
          | None -> ()
      in
      let sys =
        Causal_broadcast.create engine ~n:3
          ~delay:
            (Psn_sim.Delay_model.bounded_uniform ~min:(ms 1) ~max:(ms 500))
          ~deliver ()
      in
      cb := Some sys;
      Causal_broadcast.broadcast sys ~src:0 "m1";
      Engine.run engine;
      (* Process 2 must see m1 then m2. *)
      Alcotest.(check (list string)) "causal order at 2" [ "m1"; "m2" ]
        (List.rev order.(2));
      Alcotest.(check int) "nothing stuck" 0 (Causal_broadcast.buffered sys))
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]

let test_causal_concurrent_all_delivered () =
  let engine = Engine.create ~seed:9L () in
  let received = Array.make 4 0 in
  let sys =
    Causal_broadcast.create engine ~n:4 ~delay:delay_small
      ~deliver:(fun ~dst ~src:_ _ -> received.(dst) <- received.(dst) + 1)
      ()
  in
  for src = 0 to 3 do
    for _ = 1 to 5 do
      Causal_broadcast.broadcast sys ~src ()
    done
  done;
  Engine.run engine;
  (* Each of 20 broadcasts delivered at 3 remote nodes + 20 self. *)
  Alcotest.(check int) "total deliveries" 80 (Causal_broadcast.delivered_count sys);
  Array.iteri
    (fun i r -> Alcotest.(check int) (Printf.sprintf "node %d" i) 15 r)
    received;
  Alcotest.(check int) "no stragglers" 0 (Causal_broadcast.buffered sys)

let test_causal_chain_transitive () =
  (* Chain m1 -> m2 -> m3 across three different origins. *)
  let engine = Engine.create ~seed:13L () in
  let order2 = ref [] in
  let sys_ref = ref None in
  let deliver ~dst ~src:_ name =
    if dst = 0 then order2 := name :: !order2;
    match !sys_ref with
    | Some sys ->
        if name = "m1" && dst = 1 then Causal_broadcast.broadcast sys ~src:1 "m2";
        if name = "m2" && dst = 2 then Causal_broadcast.broadcast sys ~src:2 "m3"
    | None -> ()
  in
  let sys =
    Causal_broadcast.create engine ~n:3
      ~delay:(Psn_sim.Delay_model.bounded_uniform ~min:(ms 1) ~max:(ms 800))
      ~deliver ()
  in
  sys_ref := Some sys;
  Causal_broadcast.broadcast sys ~src:0 "m1";
  Engine.run engine;
  (* Node 0 originated m1 (delivered locally, no callback), so it must
     observe the causal suffix in order. *)
  Alcotest.(check (list string)) "transitive order" [ "m2"; "m3" ]
    (List.rev !order2)

(* --- Ricart–Agrawala mutual exclusion --- *)

let test_mutex_exclusion_and_fairness () =
  let engine = Engine.create ~seed:17L () in
  let n = 5 in
  let mutex = Mutex.create engine ~n ~delay:delay_small in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let grant_order = ref [] in
  let request_stamps = ref [] in
  for who = 0 to n - 1 do
    (* Stagger requests slightly; record request order. *)
    ignore
      (Engine.schedule_at engine
         (ms (10 + who))
         (fun () ->
           request_stamps := who :: !request_stamps;
           Mutex.request mutex ~who ~grant:(fun () ->
               incr inside;
               if !inside > !max_inside then max_inside := !inside;
               grant_order := who :: !grant_order;
               (* Hold the section for 100ms then release. *)
               ignore
                 (Engine.schedule_after engine (ms 100) (fun () ->
                      decr inside;
                      Mutex.release mutex ~who)))))
  done;
  Engine.run engine;
  Alcotest.(check int) "never two inside" 1 !max_inside;
  Alcotest.(check int) "all granted" n (Mutex.grants mutex);
  (* Lamport fairness: grants follow request timestamp order, which here
     matches the staggered request times. *)
  Alcotest.(check (list int)) "fair order" (List.rev !request_stamps)
    (List.rev !grant_order)

let test_mutex_sequential_reuse () =
  let engine = Engine.create () in
  let mutex = Mutex.create engine ~n:2 ~delay:delay_small in
  let granted = ref 0 in
  let rec cycle who remaining =
    if remaining > 0 then
      Mutex.request mutex ~who ~grant:(fun () ->
          incr granted;
          ignore
            (Engine.schedule_after engine (ms 10) (fun () ->
                 Mutex.release mutex ~who;
                 cycle who (remaining - 1))))
  in
  cycle 0 3;
  cycle 1 3;
  Engine.run engine;
  Alcotest.(check int) "six grants" 6 !granted

let test_mutex_request_while_inside_rejected () =
  let engine = Engine.create () in
  let mutex = Mutex.create engine ~n:2 ~delay:Psn_sim.Delay_model.synchronous in
  Mutex.request mutex ~who:0 ~grant:(fun () -> ());
  Alcotest.check_raises "double request"
    (Invalid_argument "Mutex.request: already requesting or inside") (fun () ->
      Mutex.request mutex ~who:0 ~grant:(fun () -> ()))

(* --- Stable log (matrix-clock GC) --- *)

let test_stable_log_prunes_after_gossip () =
  let engine = Engine.create ~seed:21L () in
  let n = 3 in
  let log = Stable_log.create engine ~n ~delay:delay_small () in
  (* Everyone publishes one observation. *)
  for src = 0 to n - 1 do
    ignore
      (Engine.schedule_at engine (ms (10 * (src + 1))) (fun () ->
           Stable_log.publish log ~src (Printf.sprintf "obs%d" src)))
  done;
  (* Without further exchange, entries cannot all be stable yet; two gossip
     rounds spread everyone's knowledge of everyone. *)
  ignore
    (Engine.schedule_at engine (ms 500) (fun () ->
         for src = 0 to n - 1 do
           Stable_log.gossip log ~src
         done));
  ignore
    (Engine.schedule_at engine (ms 1000) (fun () ->
         for src = 0 to n - 1 do
           Stable_log.gossip log ~src
         done));
  Engine.run engine;
  for i = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "node %d empty" i)
      0
      (Stable_log.buffered_at log i);
    Alcotest.(check bool)
      (Printf.sprintf "node %d pruned" i)
      true
      (Stable_log.pruned_at log i >= n)
  done

let test_stable_log_holds_without_gossip () =
  let engine = Engine.create ~seed:22L () in
  let log = Stable_log.create engine ~n:3 ~delay:delay_small () in
  Stable_log.publish log ~src:0 "lonely";
  Engine.run engine;
  (* Receivers know it, but nobody knows that everyone knows: no prune. *)
  Alcotest.(check bool) "receivers still buffer" true
    (Stable_log.buffered_at log 1 > 0 && Stable_log.buffered_at log 2 > 0)

(* --- Safra termination detection --- *)

module Termination = Psn_middleware.Termination

let test_termination_detects () =
  List.iter
    (fun seed ->
      let engine = Engine.create ~seed () in
      let rng = Rng.create ~seed () in
      let n = 5 in
      let announced_at = ref None in
      let sys = ref None in
      let term =
        Termination.create engine ~n ~delay:delay_small ~on_terminate:(fun () ->
            announced_at := Some (Engine.now engine))
      in
      sys := Some term;
      (* Diffusing computation: each work unit spawns 0-2 more with
         decreasing probability; bounded by a global budget. *)
      let budget = ref 60 in
      for i = 0 to n - 1 do
        Termination.set_worker term i (fun me ->
            let spawns = Rng.int rng 3 in
            for _ = 1 to spawns do
              if !budget > 0 then begin
                decr budget;
                let dst = (me + 1 + Rng.int rng (n - 1)) mod n in
                Termination.send_work term ~src:me ~dst
              end
            done)
      done;
      Termination.start term ~initial:[ 0 ];
      Engine.run engine;
      (* Announced exactly when globally terminated. *)
      Alcotest.(check bool) "announced" true (Termination.announced term);
      Alcotest.(check int) "no in-flight at end" 0 (Termination.in_flight term);
      Alcotest.(check bool) "all passive" true (Termination.all_passive term);
      Alcotest.(check bool) "announcement happened" true (!announced_at <> None))
    [ 3L; 9L; 27L; 81L ]

let test_termination_waits_for_work () =
  (* A long chain of work with slow links: detection must not announce
     before the last work message lands. *)
  let engine = Engine.create ~seed:41L () in
  let n = 3 in
  let last_work_done = ref Sim_time.zero in
  let announced_at = ref None in
  let term_ref = ref None in
  let term =
    Termination.create engine ~n
      ~delay:(Psn_sim.Delay_model.bounded_uniform ~min:(ms 200) ~max:(ms 200))
      ~on_terminate:(fun () -> announced_at := Some (Engine.now engine))
  in
  term_ref := Some term;
  let remaining = ref 10 in
  for i = 0 to n - 1 do
    Termination.set_worker term i (fun me ->
        last_work_done := Engine.now engine;
        if !remaining > 0 then begin
          decr remaining;
          Termination.send_work term ~src:me ~dst:((me + 1) mod n)
        end)
  done;
  Termination.start term ~initial:[ 0 ];
  Engine.run engine;
  match !announced_at with
  | Some t ->
      Alcotest.(check bool) "announce after last work" true
        Sim_time.(t >= !last_work_done);
      Alcotest.(check bool) "took extra rounds" true (Termination.rounds term >= 1)
  | None -> Alcotest.fail "never announced"

let test_termination_trivial () =
  (* No work at all: the first round announces. *)
  let engine = Engine.create () in
  let announced = ref false in
  let term =
    Termination.create engine ~n:4 ~delay:delay_small
      ~on_terminate:(fun () -> announced := true)
  in
  Termination.start term ~initial:[];
  Engine.run engine;
  Alcotest.(check bool) "announced" true !announced;
  Alcotest.(check int) "first round suffices" 0 (Termination.rounds term)

let () =
  Alcotest.run "psn_middleware"
    [
      ( "snapshot",
        [
          Alcotest.test_case "conserves money" `Quick test_snapshot_conserves_money;
          Alcotest.test_case "captures in-flight" `Quick
            test_snapshot_captures_in_flight;
          Alcotest.test_case "reinitiate" `Quick test_snapshot_reinitiate;
        ] );
      ( "causal_broadcast",
        [
          Alcotest.test_case "causal order" `Quick test_causal_order_preserved;
          Alcotest.test_case "concurrent delivery" `Quick
            test_causal_concurrent_all_delivered;
          Alcotest.test_case "transitive chain" `Quick test_causal_chain_transitive;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "exclusion + fairness" `Quick
            test_mutex_exclusion_and_fairness;
          Alcotest.test_case "sequential reuse" `Quick test_mutex_sequential_reuse;
          Alcotest.test_case "double request" `Quick
            test_mutex_request_while_inside_rejected;
        ] );
      ( "stable_log",
        [
          Alcotest.test_case "prunes after gossip" `Quick
            test_stable_log_prunes_after_gossip;
          Alcotest.test_case "holds without gossip" `Quick
            test_stable_log_holds_without_gossip;
        ] );
      ( "termination",
        [
          Alcotest.test_case "detects" `Quick test_termination_detects;
          Alcotest.test_case "waits for work" `Quick test_termination_waits_for_work;
          Alcotest.test_case "trivial" `Quick test_termination_trivial;
        ] );
    ]
