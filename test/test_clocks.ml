(* Tests for psn_clocks: the protocol rules SC1–3, VC1–3, SSC1–2, SVC1–2,
   physical clocks, matrix clocks, HLC — including the key property that
   Mattern/Fidge stamps are isomorphic to happened-before on randomly
   generated executions. *)

module Lamport = Psn_clocks.Lamport
module Vc = Psn_clocks.Vector_clock
module Ss = Psn_clocks.Strobe_scalar
module Sv = Psn_clocks.Strobe_vector
module Phys = Psn_clocks.Physical_clock
module Pv = Psn_clocks.Physical_vector
module Matrix = Psn_clocks.Matrix_clock
module Hlc = Psn_clocks.Hlc
module Sp = Psn_clocks.Stamp_plane
module Clock_kind = Psn_clocks.Clock_kind
module Sim_time = Psn_sim.Sim_time
module Rng = Psn_util.Rng

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Lamport (SC1-SC3) --- *)

let test_lamport_rules () =
  let c = Lamport.create ~me:0 in
  Alcotest.(check int) "initial" 0 (Lamport.read c);
  Alcotest.(check int) "SC1 tick" 1 (Lamport.tick c);
  Alcotest.(check int) "SC2 send" 2 (Lamport.send c);
  (* SC3: max(2, 10) + 1 *)
  Alcotest.(check int) "SC3 receive high" 11 (Lamport.receive c 10);
  (* SC3 with a stale stamp still ticks. *)
  Alcotest.(check int) "SC3 receive low" 12 (Lamport.receive c 3)

let test_lamport_total_order () =
  Alcotest.(check bool) "stamp dominates" true
    (Lamport.compare_total (1, 9) (2, 0) < 0);
  Alcotest.(check bool) "pid breaks ties" true
    (Lamport.compare_total (5, 1) (5, 2) < 0);
  Alcotest.(check int) "equal" 0 (Lamport.compare_total (5, 1) (5, 1))

(* --- Vector clock (VC1-VC3) --- *)

let test_vc_rules () =
  let a = Vc.create ~n:3 ~me:0 and b = Vc.create ~n:3 ~me:1 in
  let s1 = Vc.tick a in
  Alcotest.(check (array int)) "VC1" [| 1; 0; 0 |] s1;
  let s2 = Vc.send a in
  Alcotest.(check (array int)) "VC2" [| 2; 0; 0 |] s2;
  let s3 = Vc.receive b s2 in
  Alcotest.(check (array int)) "VC3 merge+tick" [| 2; 1; 0 |] s3

let test_vc_comparisons () =
  Alcotest.(check bool) "leq" true (Vc.leq [| 1; 0 |] [| 1; 2 |]);
  Alcotest.(check bool) "hb strict" false (Vc.happened_before [| 1; 2 |] [| 1; 2 |]);
  Alcotest.(check bool) "hb" true (Vc.happened_before [| 1; 0 |] [| 1; 2 |]);
  Alcotest.(check bool) "concurrent" true (Vc.concurrent [| 1; 0 |] [| 0; 1 |]);
  Alcotest.(check (array int)) "merge" [| 1; 1 |] (Vc.merge [| 1; 0 |] [| 0; 1 |]);
  Alcotest.(check (option int)) "compare lt" (Some (-1))
    (Vc.compare_partial [| 1; 0 |] [| 1; 2 |]);
  Alcotest.(check (option int)) "compare conc" None
    (Vc.compare_partial [| 1; 0 |] [| 0; 1 |]);
  Alcotest.(check int) "total" 3 (Vc.total [| 1; 2 |])

(* Random execution generator shared by the isomorphism tests: returns the
   event list [(proc, vstamp, id)] and the happened-before relation as
   reachability over (program order + message) edges. *)
let random_execution ~seed ~n ~steps =
  let rng = Rng.create ~seed () in
  let clocks = Array.init n (fun me -> Vc.create ~n ~me) in
  let events = ref [] in
  let nev = ref 0 in
  let last_event = Array.make n None in
  let edges = ref [] in
  let add_event proc stamp =
    let id = !nev in
    incr nev;
    events := (proc, stamp, id) :: !events;
    (match last_event.(proc) with
    | Some prev -> edges := (prev, id) :: !edges
    | None -> ());
    last_event.(proc) <- Some id;
    id
  in
  (* Pending messages carry (stamp, send event id). *)
  let pending = ref [] in
  for _ = 1 to steps do
    match Rng.int rng 3 with
    | 0 ->
        let i = Rng.int rng n in
        ignore (add_event i (Vc.tick clocks.(i)))
    | 1 ->
        let i = Rng.int rng n in
        let stamp = Vc.send clocks.(i) in
        let id = add_event i stamp in
        pending := (stamp, id) :: !pending
    | _ -> (
        match !pending with
        | [] -> ()
        | (stamp, send_id) :: rest ->
            pending := rest;
            let j = Rng.int rng n in
            let stamp' = Vc.receive clocks.(j) stamp in
            let id = add_event j stamp' in
            edges := (send_id, id) :: !edges)
  done;
  let m = !nev in
  (* Transitive closure (small m). *)
  let reach = Array.make_matrix m m false in
  List.iter (fun (a, b) -> reach.(a).(b) <- true) !edges;
  for k = 0 to m - 1 do
    for i = 0 to m - 1 do
      if reach.(i).(k) then
        for j = 0 to m - 1 do
          if reach.(k).(j) then reach.(i).(j) <- true
        done
    done
  done;
  (List.rev !events, reach)

let test_vc_isomorphism =
  qtest ~count:40 "vc: stamps isomorphic to happened-before" QCheck.int
    (fun seed ->
      let events, reach =
        random_execution ~seed:(Int64.of_int seed) ~n:3 ~steps:30
      in
      List.for_all
        (fun (_, sa, ia) ->
          List.for_all
            (fun (_, sb, ib) ->
              ia = ib
              || Bool.equal reach.(ia).(ib) (Vc.happened_before sa sb))
            events)
        events)

let test_lamport_consistency =
  (* Weak clock condition: e -> f implies L(e) < L(f). *)
  qtest ~count:40 "lamport: consistent with happened-before" QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let n = 3 in
      let lamports = Array.init n (fun me -> Lamport.create ~me) in
      let vcs = Array.init n (fun me -> Vc.create ~n ~me) in
      let events = ref [] in
      let pending = ref [] in
      for _ = 1 to 30 do
        match Rng.int rng 3 with
        | 0 ->
            let i = Rng.int rng n in
            events := (Lamport.tick lamports.(i), Vc.tick vcs.(i)) :: !events
        | 1 ->
            let i = Rng.int rng n in
            let s = Lamport.send lamports.(i) and v = Vc.send vcs.(i) in
            events := (s, v) :: !events;
            pending := (s, v) :: !pending
        | _ -> (
            match !pending with
            | [] -> ()
            | (s, v) :: rest ->
                pending := rest;
                let j = Rng.int rng n in
                events :=
                  (Lamport.receive lamports.(j) s, Vc.receive vcs.(j) v)
                  :: !events)
      done;
      List.for_all
        (fun (sa, va) ->
          List.for_all
            (fun (sb, vb) -> (not (Vc.happened_before va vb)) || sa < sb)
            !events)
        !events)

(* --- Strobe scalar (SSC1-SSC2) --- *)

let test_strobe_scalar_rules () =
  let c = Ss.create ~me:0 in
  Alcotest.(check int) "SSC1" 1 (Ss.tick_and_strobe c);
  (* SSC2: catch up, no tick. *)
  Ss.receive_strobe c 10;
  Alcotest.(check int) "SSC2 catch up" 10 (Ss.read c);
  Ss.receive_strobe c 4;
  Alcotest.(check int) "SSC2 no regress" 10 (Ss.read c);
  Alcotest.(check int) "tick after catch-up" 11 (Ss.tick_and_strobe c)

let test_strobe_scalar_no_tick_on_receive () =
  let c = Ss.create ~me:0 in
  let before = Ss.read c in
  Ss.receive_strobe c before;
  Alcotest.(check int) "receive of equal value does not tick" before (Ss.read c)

(* --- Strobe vector (SVC1-SVC2) --- *)

let test_strobe_vector_rules () =
  let a = Sv.create ~n:3 ~me:0 and b = Sv.create ~n:3 ~me:1 in
  let s = Sv.tick_and_strobe a in
  Alcotest.(check (array int)) "SVC1" [| 1; 0; 0 |] s;
  Sv.receive_strobe b s;
  (* SVC2: merge only — own component untouched. *)
  Alcotest.(check (array int)) "SVC2 merge no tick" [| 1; 0; 0 |] (Sv.read b);
  let s2 = Sv.tick_and_strobe b in
  Alcotest.(check (array int)) "tick after merge" [| 1; 1; 0 |] s2

let test_strobe_vector_monotone =
  qtest ~count:50 "strobe vector: reads are monotone" QCheck.(list (int_bound 2))
    (fun ops ->
      let a = Sv.create ~n:3 ~me:0 in
      let rng = Rng.create () in
      let prev = ref (Sv.read a) in
      List.for_all
        (fun op ->
          (match op with
          | 0 -> ignore (Sv.tick_and_strobe a)
          | 1 ->
              let s = Array.init 3 (fun _ -> Rng.int rng 10) in
              Sv.receive_strobe a s
          | _ -> ());
          let now = Sv.read a in
          let ok = Vc.leq !prev now in
          prev := now;
          ok)
        ops)

let test_strobe_sizes () =
  Alcotest.(check int) "scalar O(1)" 1 Ss.stamp_size_words;
  Alcotest.(check int) "vector O(n)" 16 (Sv.stamp_size_words 16)

(* --- Physical clocks --- *)

let test_physical_perfect () =
  let c = Phys.perfect () in
  let now = Sim_time.of_ms 1234 in
  Alcotest.(check (float 1e-9)) "reads true time" 1.234
    (Sim_time.to_sec_float (Phys.read c ~now))

let test_physical_synced_within =
  qtest ~count:50 "physical: synced_within bound" QCheck.int (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let eps = Sim_time.of_ms 10 in
      let c = Phys.synced_within rng ~eps in
      let err = Phys.error_sec c ~now:(Sim_time.of_sec 100) in
      Float.abs err <= 0.005 +. 1e-9)

let test_physical_drift_grows () =
  let rng = Rng.create ~seed:77L () in
  let c = Phys.create rng ~max_offset:Sim_time.zero ~max_drift_ppm:100.0 in
  let e1 = Float.abs (Phys.error_sec c ~now:(Sim_time.of_sec 10)) in
  let e2 = Float.abs (Phys.error_sec c ~now:(Sim_time.of_sec 1000)) in
  Alcotest.(check bool) "error grows with drift" true (e2 > e1)

let test_physical_correction () =
  let rng = Rng.create ~seed:78L () in
  let c = Phys.create rng ~max_offset:(Sim_time.of_ms 100) ~max_drift_ppm:0.0 in
  let now = Sim_time.of_sec 5 in
  let err_before = Phys.error_sec c ~now in
  Phys.apply_correction c ~now ~offset_ns:(-.err_before *. 1e9) ~drift_ppm:0.0;
  let err_after = Phys.error_sec c ~now in
  Alcotest.(check bool) "correction shrinks error" true
    (Float.abs err_after < Float.abs err_before /. 100.0 +. 1e-9);
  Phys.adjust_offset_ns c 1000.0;
  let err_adj = Phys.error_sec c ~now in
  Alcotest.(check (float 1e-9)) "adjust adds 1us" 1e-6 (err_adj -. err_after)

let test_physical_raw_vs_corrected () =
  let rng = Rng.create ~seed:79L () in
  let c = Phys.create rng ~max_offset:(Sim_time.of_ms 50) ~max_drift_ppm:0.0 in
  let now = Sim_time.of_sec 1 in
  Phys.apply_correction c ~now ~offset_ns:5000.0 ~drift_ppm:0.0;
  let raw = Phys.read_raw c ~now and corr = Phys.read c ~now in
  Alcotest.(check bool) "raw ignores correction" true (not (Sim_time.equal raw corr))

(* --- Physical vector --- *)

let test_physical_vector () =
  let hw0 = Phys.perfect () and hw1 = Phys.perfect () in
  let a = Pv.create ~n:2 ~me:0 hw0 and b = Pv.create ~n:2 ~me:1 hw1 in
  let sa = Pv.tick a ~now:(Sim_time.of_ms 100) in
  Pv.receive b ~now:(Sim_time.of_ms 200) sa;
  let sb = Pv.read b in
  Alcotest.(check bool) "hb after receive" true (Pv.happened_before sa sb);
  let s_conc = Pv.tick a ~now:(Sim_time.of_ms 300) in
  let b_only = Pv.tick b ~now:(Sim_time.of_ms 250) in
  Alcotest.(check bool) "tick monotone" true (Pv.leq sa s_conc);
  ignore b_only

(* --- Matrix clock --- *)

let test_matrix_clock () =
  let a = Matrix.create ~n:3 ~me:0 and b = Matrix.create ~n:3 ~me:1 in
  let sa = Matrix.tick a in
  Alcotest.(check int) "own count" 1 sa.(0).(0);
  Matrix.receive b ~from:0 sa;
  Alcotest.(check int) "b knows a's event" 1 (Matrix.vector b).(0);
  (* min_known: process 2 has seen nothing of 0. *)
  Alcotest.(check int) "min_known floor" 0 (Matrix.min_known b 0);
  Alcotest.(check int) "size" 3 (Matrix.size b)

let test_matrix_gc_property () =
  (* After a full exchange round everyone knows everyone saw event 1. *)
  let n = 3 in
  let clocks = Array.init n (fun me -> Matrix.create ~n ~me) in
  let s0 = Matrix.send clocks.(0) in
  Matrix.receive clocks.(1) ~from:0 s0;
  Matrix.receive clocks.(2) ~from:0 s0;
  let s1 = Matrix.send clocks.(1) in
  let s2 = Matrix.send clocks.(2) in
  Matrix.receive clocks.(0) ~from:1 s1;
  Matrix.receive clocks.(0) ~from:2 s2;
  Alcotest.(check bool) "min_known at checker >= 1" true
    (Matrix.min_known clocks.(0) 0 >= 1)

(* --- HLC --- *)

let test_hlc_monotone () =
  let hw = Phys.perfect () in
  let c = Hlc.create ~me:0 hw in
  let s1 = Hlc.tick c ~now:(Sim_time.of_ms 10) in
  let s2 = Hlc.tick c ~now:(Sim_time.of_ms 5) in
  (* Physical time went backwards (other node's perspective); HLC must not. *)
  Alcotest.(check bool) "monotone" true (Hlc.compare_stamp s1 s2 < 0)

let test_hlc_happened_before () =
  let hw0 = Phys.perfect () and hw1 = Phys.perfect () in
  let a = Hlc.create ~me:0 hw0 and b = Hlc.create ~me:1 hw1 in
  let sa = Hlc.send a ~now:(Sim_time.of_ms 100) in
  let sb = Hlc.receive b ~now:(Sim_time.of_ms 50) sa in
  (* Receiver's physical clock is behind the sender's stamp; logical
     component must still order send before receive. *)
  Alcotest.(check bool) "send < receive" true (Hlc.compare_stamp sa sb < 0)

let test_hlc_divergence_bounded () =
  let hw = Phys.perfect () in
  let c = Hlc.create ~me:0 hw in
  ignore (Hlc.tick c ~now:(Sim_time.of_ms 10));
  ignore (Hlc.tick c ~now:(Sim_time.of_ms 20));
  Alcotest.(check (float 1e-9)) "no divergence with perfect clock" 0.0
    (Hlc.physical_divergence c ~now:(Sim_time.of_ms 20))

(* --- Stamp plane --- *)

let test_plane_basics () =
  let p = Sp.create ~n:3 () in
  Alcotest.(check int) "width" 3 (Sp.width p);
  Alcotest.(check int) "empty" 0 (Sp.count p);
  let h = Sp.of_array p [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "roundtrip" [| 1; 2; 3 |] (Sp.read p h);
  Alcotest.(check int) "get" 2 (Sp.get p h 1);
  Sp.set p h 1 9;
  Alcotest.(check int) "set" 9 (Sp.get p h 1);
  let h2 = Sp.of_array p [| 4; 0; 3 |] in
  Alcotest.(check int) "count" 2 (Sp.count p);
  let m = Sp.merge p h h2 in
  Alcotest.(check (array int)) "merge" [| 4; 9; 3 |] (Sp.read p m);
  Alcotest.(check int) "total" 16 (Sp.total p m);
  let dst = Array.make 3 0 in
  Sp.blit_to p h dst ~pos:0;
  Alcotest.(check (array int)) "blit_to" [| 1; 9; 3 |] dst;
  Alcotest.(check bool) "of_array width mismatch" true
    (try
       ignore (Sp.of_array p [| 1 |]);
       false
     with Invalid_argument _ -> true)

let test_plane_growth_preserves_handles () =
  (* [initial = 1] forces repeated doubling; handles are offsets, so
     every stamp allocated before a growth must read back unchanged. *)
  let p = Sp.create ~initial:1 ~n:4 () in
  let handles =
    Array.init 100 (fun i -> Sp.of_array p [| i; i + 1; i + 2; i + 3 |])
  in
  Alcotest.(check int) "count" 100 (Sp.count p);
  Alcotest.(check bool) "grew" true (Sp.capacity p >= 100);
  Array.iteri
    (fun i h ->
      Alcotest.(check (array int))
        "handle stable across growth"
        [| i; i + 1; i + 2; i + 3 |]
        (Sp.read p h))
    handles

let test_plane_reset () =
  let p = Sp.create ~n:2 () in
  let h = Sp.of_array p [| 1; 2 |] in
  Alcotest.(check bool) "valid before" true (Sp.is_valid p h);
  Sp.reset p;
  Alcotest.(check int) "count 0" 0 (Sp.count p);
  Alcotest.(check bool) "invalid after" false (Sp.is_valid p h);
  Alcotest.(check bool) "read after reset raises" true
    (try
       ignore (Sp.read p h);
       false
     with Invalid_argument _ -> true);
  let h' = Sp.of_array p [| 7; 8 |] in
  Alcotest.(check int) "offsets recycled" h h';
  Alcotest.(check (array int)) "fresh contents" [| 7; 8 |] (Sp.read p h')

(* Released handles are dead to every accessor, like handles past the
   live length; the live ones still read back. *)
let test_plane_release_rejects () =
  let p = Sp.create ~n:2 () in
  let h0 = Sp.of_array p [| 1; 2 |] in
  let h1 = Sp.of_array p [| 3; 4 |] in
  Sp.release p ~below:h1;
  Alcotest.(check int) "floor" h1 (Sp.floor p);
  Alcotest.(check int) "live" 1 (Sp.live p);
  Alcotest.(check int) "count keeps released stamps" 2 (Sp.count p);
  Alcotest.(check bool) "released handle invalid" false (Sp.is_valid p h0);
  let dead = Invalid_argument "Stamp_plane: dead or foreign handle" in
  List.iter
    (fun (name, f) -> Alcotest.check_raises name dead f)
    [
      ("read", fun () -> ignore (Sp.read p h0));
      ("get", fun () -> ignore (Sp.get p h0 0));
      ("set", fun () -> Sp.set p h0 0 9);
      ("blit_to", fun () -> Sp.blit_to p h0 (Array.make 2 0) ~pos:0);
      ("max_into_array", fun () -> Sp.max_into_array p h0 (Array.make 2 0));
      ( "receive_snapshot",
        fun () -> ignore (Sp.receive_snapshot p h0 (Array.make 2 0) ~me:0) );
      ("leq", fun () -> ignore (Sp.leq p h1 h0));
      ("merge", fun () -> ignore (Sp.merge p h1 h0));
    ];
  Alcotest.(check (array int)) "live handle reads" [| 3; 4 |] (Sp.read p h1);
  Sp.release p ~below:0;
  Alcotest.(check int) "a lower floor changes nothing" h1 (Sp.floor p);
  let bad = Invalid_argument "Stamp_plane.release: not a handle of this plane" in
  Alcotest.check_raises "misaligned" bad (fun () -> Sp.release p ~below:3);
  Alcotest.check_raises "past the end" bad (fun () -> Sp.release p ~below:6);
  Alcotest.check_raises "backing of a released plane"
    (Invalid_argument "Stamp_plane.backing: the plane has released")
    (fun () -> ignore (Sp.backing p));
  Sp.release p ~below:4;
  Alcotest.(check int) "everything released" 0 (Sp.live p);
  Sp.reset p;
  Alcotest.(check int) "reset lowers the floor" 0 (Sp.floor p)

(* A window of live stamps moving along the plane: each full backing is
   at least half released, so the rows slide down instead of doubling,
   and every live handle reads what was written, across every slide. *)
let test_plane_slide =
  qtest ~count:100 "plane: live handles read the same across a slide"
    QCheck.(pair (int_range 1 5) (int_range 0 12))
    (fun (n, window) ->
      let p = Sp.create ~initial:4 ~n () in
      let stamp i = Array.init n (fun j -> (i * 10) + j) in
      let live = Queue.create () in
      let ok = ref true in
      for i = 0 to 500 do
        Queue.push (i, Sp.of_array p (stamp i)) live;
        while Queue.length live > window do
          ignore (Queue.pop live)
        done;
        Sp.release p
          ~below:
            (match Queue.peek_opt live with
            | Some (_, h) -> h
            | None -> Sp.count p * n);
        Queue.iter (fun (i, h) -> if Sp.read p h <> stamp i then ok := false) live
      done;
      if Sp.capacity p > 4 * (window + 1) then
        QCheck.Test.fail_reportf "capacity %d for a window of %d"
          (Sp.capacity p) window;
      !ok && Sp.live p = window)

(* A plane that never releases grows by plain doubling: after [k]
   allocations its capacity is the least [initial * 2^j] at or above
   [k], as before planes could release. *)
let test_plane_doubling_unchanged () =
  List.iter
    (fun (initial, n) ->
      let p = Sp.create ~initial ~n () in
      let want = ref initial in
      for k = 1 to 2_000 do
        ignore (Sp.alloc p);
        while !want < k do
          want := 2 * !want
        done;
        if Sp.capacity p <> !want then
          Alcotest.failf "initial %d, width %d: capacity %d after %d allocs, \
                          expected %d" initial n (Sp.capacity p) k !want
      done)
    [ (1, 1); (3, 2); (64, 3); (5, 7) ]

let test_plane_comparisons_agree =
  let arr = QCheck.(array_of_size (Gen.return 5) (int_bound 6)) in
  qtest ~count:200 "plane: handle comparisons agree with Vector_clock"
    (QCheck.pair arr arr)
    (fun (a, b) ->
      let p = Sp.create ~n:5 () in
      let ha = Sp.of_array p a and hb = Sp.of_array p b in
      Sp.leq p ha hb = Vc.leq a b
      && Sp.equal p ha hb = Vc.equal a b
      && Sp.happened_before p ha hb = Vc.happened_before a b
      && Sp.concurrent p ha hb = Vc.concurrent a b
      && Sp.compare_partial p ha hb = Vc.compare_partial a b
      && Sp.total p ha = Vc.total a
      && Sp.read p (Sp.merge p ha hb) = Vc.merge a b
      && compare (Sp.compare_lex p ha hb) 0 = compare (Stdlib.compare a b) 0)

(* Differential oracle: one random execution drives the copy-stamp VC
   rules and the plane rules side by side; every stamp the plane hands
   out must read back as exactly the array the legacy API returns, and
   the happened-before structure over the whole log must agree. *)
let test_plane_vc_differential =
  qtest ~count:40 "plane: arena VC replay matches copy-stamp VC" QCheck.int
    (fun seed ->
      let n = 4 and steps = 50 in
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let p = Sp.create ~initial:1 ~n () in
      let legacy = Array.init n (fun me -> Vc.create ~n ~me) in
      let arena = Array.init n (fun me -> Vc.create ~n ~me) in
      let pending = Queue.create () in
      let log = ref [] in
      let ok = ref true in
      let record s h =
        if Sp.read p h <> s then ok := false;
        log := (s, h) :: !log
      in
      for _ = 1 to steps do
        match Rng.int rng 3 with
        | 0 ->
            let i = Rng.int rng n in
            record (Vc.tick legacy.(i)) (Vc.tick_into p arena.(i))
        | 1 ->
            let i = Rng.int rng n in
            let s = Vc.send legacy.(i) in
            let h = Vc.send_into p arena.(i) in
            record s h;
            Queue.add (s, h) pending
        | _ ->
            if not (Queue.is_empty pending) then begin
              let s, h = Queue.pop pending in
              let j = Rng.int rng n in
              record (Vc.receive legacy.(j) s) (Vc.receive_into p arena.(j) h)
            end
      done;
      (* Live clock states agree. *)
      for i = 0 to n - 1 do
        if Vc.read legacy.(i) <> Vc.read arena.(i) then ok := false
      done;
      (* Verdicts agree over every pair in the log. *)
      List.iter
        (fun (sa, ha) ->
          List.iter
            (fun (sb, hb) ->
              if
                Sp.happened_before p ha hb <> Vc.happened_before sa sb
                || Sp.concurrent p ha hb <> Vc.concurrent sa sb
              then ok := false)
            !log)
        !log;
      !ok)

let test_plane_strobe_differential =
  qtest ~count:40 "plane: arena strobe replay matches copy-stamp strobe"
    QCheck.int
    (fun seed ->
      let n = 4 and steps = 50 in
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let p = Sp.create ~initial:1 ~n () in
      let legacy = Array.init n (fun me -> Sv.create ~n ~me) in
      let arena = Array.init n (fun me -> Sv.create ~n ~me) in
      let ok = ref true in
      for _ = 1 to steps do
        let i = Rng.int rng n in
        let s = Sv.tick_and_strobe legacy.(i) in
        let h = Sv.tick_and_strobe_into p arena.(i) in
        if Sp.read p h <> s then ok := false;
        (* SVC1 stamps are strobed to everyone; SVC2 merges, no tick. *)
        for j = 0 to n - 1 do
          if j <> i then begin
            Sv.receive_strobe legacy.(j) s;
            Sv.receive_strobe_from p arena.(j) h
          end
        done
      done;
      for i = 0 to n - 1 do
        if Sv.read legacy.(i) <> Sv.read arena.(i) then ok := false
      done;
      !ok)

(* Row stamps vs full-matrix stamps: the sender's own row carries the
   same causal information for the *vector view* (everyone's knowledge
   of the receiver's row is dominated by the receiver's actual row, so
   the full-matrix merge adds nothing to it), while [min_known] may lag
   behind — second-hand rows are not propagated.  The plane row path
   must match the array row path exactly. *)
let test_matrix_row_differential =
  qtest ~count:40 "matrix: row stamps match full matrix on vector view"
    QCheck.int
    (fun seed ->
      let n = 4 and steps = 50 in
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let p = Sp.create ~initial:1 ~n () in
      let full = Array.init n (fun me -> Matrix.create ~n ~me) in
      let rows = Array.init n (fun me -> Matrix.create ~n ~me) in
      let plane = Array.init n (fun me -> Matrix.create ~n ~me) in
      let ok = ref true in
      for _ = 1 to steps do
        let i = Rng.int rng n and j = Rng.int rng n in
        if i = j then begin
          ignore (Matrix.tick full.(i));
          ignore (Matrix.tick_row rows.(i));
          ignore (Matrix.tick_row_into p plane.(i))
        end
        else begin
          let sm = Matrix.send full.(i) in
          let sr = Matrix.send_row rows.(i) in
          let h = Matrix.send_row_into p plane.(i) in
          if Sp.read p h <> sr then ok := false;
          if sr <> sm.(i) then ok := false;
          Matrix.receive full.(j) ~from:i sm;
          Matrix.receive_row rows.(j) ~from:i sr;
          Matrix.receive_row_from p plane.(j) ~from:i h
        end
      done;
      for k = 0 to n - 1 do
        if Matrix.vector full.(k) <> Matrix.vector rows.(k) then ok := false;
        if Matrix.read rows.(k) <> Matrix.read plane.(k) then ok := false;
        for j = 0 to n - 1 do
          if Matrix.min_known rows.(k) j > Matrix.min_known full.(k) j then
            ok := false
        done
      done;
      !ok)

let test_plane_physical_vector () =
  let n = 3 in
  let p = Sp.create ~n () in
  let mk () = Array.init n (fun me -> Pv.create ~n ~me (Phys.perfect ())) in
  let legacy = mk () and arena = mk () in
  let to_ns = Array.map Sim_time.to_ns in
  let now ms = Sim_time.of_ms ms in
  let s1 = Pv.tick legacy.(0) ~now:(now 10) in
  let h1 = Pv.tick_into p arena.(0) ~now:(now 10) in
  Alcotest.(check (array int)) "tick stamp" (to_ns s1) (Sp.read p h1);
  let s2 = Pv.send legacy.(1) ~now:(now 20) in
  let h2 = Pv.send_into p arena.(1) ~now:(now 20) in
  Alcotest.(check (array int)) "send stamp" (to_ns s2) (Sp.read p h2);
  Pv.receive legacy.(2) ~now:(now 30) s2;
  Pv.receive_from p arena.(2) ~now:(now 30) h2;
  Alcotest.(check (array int)) "receive state"
    (to_ns (Pv.read legacy.(2)))
    (to_ns (Pv.read arena.(2)))

let test_dimension_mismatches () =
  let a = Vc.create ~n:3 ~me:0 in
  Alcotest.(check bool) "vc receive mismatch" true
    (try
       ignore (Vc.receive a [| 1; 2 |]);
       false
     with Invalid_argument _ -> true);
  let sv = Sv.create ~n:3 ~me:0 in
  Alcotest.(check bool) "strobe receive mismatch" true
    (try
       Sv.receive_strobe sv [| 1 |];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "leq mismatch" true
    (try
       ignore (Vc.leq [| 1 |] [| 1; 2 |]);
       false
     with Invalid_argument _ -> true)

let test_construction_bounds () =
  Alcotest.(check bool) "vc bad me" true
    (try
       ignore (Vc.create ~n:2 ~me:5);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "vc bad n" true
    (try
       ignore (Vc.create ~n:0 ~me:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "lamport bad me" true
    (try
       ignore (Lamport.create ~me:(-1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "ids kept" 3 (Lamport.me (Lamport.create ~me:3));
  Alcotest.(check int) "vc size" 4 (Vc.size (Vc.create ~n:4 ~me:1))

(* --- Clock_kind --- *)

let test_clock_kind () =
  Alcotest.(check string) "to_string" "strobe-vector"
    (Clock_kind.to_string Clock_kind.Strobe_vector);
  Alcotest.(check bool) "strobe vector partial order" true
    (Clock_kind.time_model Clock_kind.Strobe_vector = Clock_kind.Partial_order);
  Alcotest.(check bool) "lamport single axis" true
    (Clock_kind.time_model Clock_kind.Logical_scalar = Clock_kind.Single_axis);
  let hybrid =
    Clock_kind.Hybrid_logical
      { max_offset = Sim_time.of_ms 10; max_drift_ppm = 50.0 }
  in
  Alcotest.(check bool) "hlc single axis" true
    (Clock_kind.time_model hybrid = Clock_kind.Single_axis)

let () =
  Alcotest.run "psn_clocks"
    [
      ( "lamport",
        [
          Alcotest.test_case "SC rules" `Quick test_lamport_rules;
          Alcotest.test_case "total order" `Quick test_lamport_total_order;
          test_lamport_consistency;
        ] );
      ( "vector",
        [
          Alcotest.test_case "VC rules" `Quick test_vc_rules;
          Alcotest.test_case "comparisons" `Quick test_vc_comparisons;
          test_vc_isomorphism;
        ] );
      ( "strobe_scalar",
        [
          Alcotest.test_case "SSC rules" `Quick test_strobe_scalar_rules;
          Alcotest.test_case "no tick on receive" `Quick
            test_strobe_scalar_no_tick_on_receive;
        ] );
      ( "strobe_vector",
        [
          Alcotest.test_case "SVC rules" `Quick test_strobe_vector_rules;
          test_strobe_vector_monotone;
          Alcotest.test_case "sizes" `Quick test_strobe_sizes;
        ] );
      ( "physical",
        [
          Alcotest.test_case "perfect" `Quick test_physical_perfect;
          test_physical_synced_within;
          Alcotest.test_case "drift grows" `Quick test_physical_drift_grows;
          Alcotest.test_case "correction" `Quick test_physical_correction;
          Alcotest.test_case "raw vs corrected" `Quick test_physical_raw_vs_corrected;
          Alcotest.test_case "physical vector" `Quick test_physical_vector;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "basics" `Quick test_matrix_clock;
          Alcotest.test_case "gc property" `Quick test_matrix_gc_property;
        ] );
      ( "hlc",
        [
          Alcotest.test_case "monotone" `Quick test_hlc_monotone;
          Alcotest.test_case "happened-before" `Quick test_hlc_happened_before;
          Alcotest.test_case "divergence" `Quick test_hlc_divergence_bounded;
        ] );
      ( "stamp_plane",
        [
          Alcotest.test_case "basics" `Quick test_plane_basics;
          Alcotest.test_case "growth preserves handles" `Quick
            test_plane_growth_preserves_handles;
          Alcotest.test_case "reset" `Quick test_plane_reset;
          Alcotest.test_case "released handles rejected" `Quick
            test_plane_release_rejects;
          test_plane_slide;
          Alcotest.test_case "doubling unchanged without release" `Quick
            test_plane_doubling_unchanged;
          test_plane_comparisons_agree;
          test_plane_vc_differential;
          test_plane_strobe_differential;
          test_matrix_row_differential;
          Alcotest.test_case "physical vector plane" `Quick
            test_plane_physical_vector;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "dimension mismatches" `Quick test_dimension_mismatches;
          Alcotest.test_case "construction bounds" `Quick test_construction_bounds;
        ] );
      ("clock_kind", [ Alcotest.test_case "meta" `Quick test_clock_kind ]);
    ]
