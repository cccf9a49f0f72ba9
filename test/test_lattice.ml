(* Tests for psn_lattice: cuts, consistency, and the sublattice counter
   behind the slim lattice postulate. *)

module Cut = Psn_lattice.Cut
module Lattice = Psn_lattice.Lattice

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Cut --- *)

let test_cut_basics () =
  let b = Cut.bottom 3 in
  Alcotest.(check (array int)) "bottom" [| 0; 0; 0 |] b;
  Alcotest.(check int) "level" 0 (Cut.level b);
  let t = Cut.top [| 2; 3; 1 |] in
  Alcotest.(check int) "top level" 6 (Cut.level t);
  Alcotest.(check bool) "bottom <= top" true (Cut.leq b t);
  Alcotest.(check bool) "not top <= bottom" false (Cut.leq t b)

let test_cut_lattice_ops () =
  let a = [| 1; 2; 0 |] and b = [| 2; 1; 0 |] in
  Alcotest.(check (array int)) "join" [| 2; 2; 0 |] (Cut.join a b);
  Alcotest.(check (array int)) "meet" [| 1; 1; 0 |] (Cut.meet a b)

let cut_gen =
  QCheck.(triple (int_bound 4) (int_bound 4) (int_bound 4))

let test_cut_lattice_laws =
  qtest "cut: join/meet absorption" QCheck.(pair cut_gen cut_gen)
    (fun ((a1, a2, a3), (b1, b2, b3)) ->
      let a = [| a1; a2; a3 |] and b = [| b1; b2; b3 |] in
      Cut.equal (Cut.join a (Cut.meet a b)) a
      && Cut.equal (Cut.meet a (Cut.join a b)) a
      && Cut.leq (Cut.meet a b) a
      && Cut.leq a (Cut.join a b))

let test_cut_successors () =
  let lens = [| 2; 1 |] in
  let succ = Cut.successors ~lens [| 1; 1 |] in
  Alcotest.(check int) "one successor" 1 (List.length succ);
  match succ with
  | [ (i, c) ] ->
      Alcotest.(check int) "advancing proc" 0 i;
      Alcotest.(check (array int)) "cut" [| 2; 1 |] c
  | _ -> Alcotest.fail "unexpected successors"

(* --- Lattice --- *)

(* Independent stamps: no communication at all. *)
let independent ~n ~k =
  Array.init n (fun i ->
      Array.init k (fun e ->
          let v = Array.make n 0 in
          v.(i) <- e + 1;
          v))

(* Fully-sequenced stamps: process 0's events all precede process 1's...
   realized by carrying full knowledge forward. *)
let chain_stamps ~n ~k =
  let counter = Array.make n 0 in
  Array.init n (fun i ->
      Array.init k (fun _ ->
          counter.(i) <- counter.(i) + 1;
          Array.copy counter))

let verdict_t = Alcotest.testable Lattice.pp_verdict ( = )

let test_lattice_independent_count () =
  let stamps = independent ~n:3 ~k:2 in
  Alcotest.check verdict_t "total" (Lattice.Exact 27) (Lattice.total_cuts stamps);
  (match Lattice.count_consistent stamps with
  | Lattice.Exact n -> Alcotest.(check int) "all consistent" 27 n
  | Lattice.At_least _ -> Alcotest.fail "capped");
  Alcotest.(check bool) "not a chain" false (Lattice.is_chain stamps)

let test_lattice_chain () =
  let stamps = chain_stamps ~n:3 ~k:2 in
  (match Lattice.count_consistent stamps with
  | Lattice.Exact n -> Alcotest.(check int) "n*k+1" 7 n
  | Lattice.At_least _ -> Alcotest.fail "capped");
  Alcotest.(check bool) "chain" true (Lattice.is_chain stamps)

let test_lattice_message_prunes () =
  (* Two processes, one "message": p1's first event knows p0's first. *)
  let stamps =
    [|
      [| [| 1; 0 |]; [| 2; 0 |] |];
      [| [| 1; 1 |]; [| 1; 2 |] |];
    |]
  in
  (* Inconsistent cuts: those including p1's events without p0's first. *)
  match Lattice.count_consistent stamps with
  | Lattice.Exact n ->
      Alcotest.check verdict_t "total" (Lattice.Exact 9) (Lattice.total_cuts stamps);
      Alcotest.(check int) "pruned" 7 n
  | Lattice.At_least _ -> Alcotest.fail "capped"

let test_lattice_is_consistent () =
  let stamps =
    [|
      [| [| 1; 0 |] |];
      [| [| 1; 1 |] |];
    |]
  in
  Alcotest.(check bool) "bottom" true (Lattice.is_consistent stamps [| 0; 0 |]);
  Alcotest.(check bool) "needs cause" false
    (Lattice.is_consistent stamps [| 0; 1 |]);
  Alcotest.(check bool) "with cause" true (Lattice.is_consistent stamps [| 1; 1 |])

let test_lattice_enumerate_matches_bruteforce () =
  let stamps =
    [|
      [| [| 1; 0 |]; [| 2; 1 |] |];
      [| [| 0; 1 |]; [| 1; 2 |] |];
    |]
  in
  let cuts, verdict = Lattice.consistent_cuts stamps in
  (match verdict with
  | Lattice.Exact n -> Alcotest.(check int) "count matches list" n (List.length cuts)
  | Lattice.At_least _ -> Alcotest.fail "capped");
  (* Brute force over all cuts. *)
  let brute = ref 0 in
  for a = 0 to 2 do
    for b = 0 to 2 do
      if Lattice.is_consistent stamps [| a; b |] then incr brute
    done
  done;
  Alcotest.(check int) "bfs = brute force" !brute (List.length cuts)

let test_lattice_closure_under_meet_join () =
  let stamps =
    [|
      [| [| 1; 0 |]; [| 2; 1 |] |];
      [| [| 0; 1 |]; [| 1; 2 |] |];
    |]
  in
  let cuts, _ = Lattice.consistent_cuts stamps in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool) "join consistent" true
            (Lattice.is_consistent stamps (Cut.join a b));
          Alcotest.(check bool) "meet consistent" true
            (Lattice.is_consistent stamps (Cut.meet a b)))
        cuts)
    cuts

let test_lattice_cap () =
  let stamps = independent ~n:4 ~k:5 in
  match Lattice.count_consistent ~cap:100 stamps with
  | Lattice.At_least n -> Alcotest.(check int) "cap respected" 100 n
  | Lattice.Exact _ -> Alcotest.fail "expected cap"

let test_lattice_validate () =
  Alcotest.(check bool) "bad own component rejected" true
    (try
       ignore (Lattice.count_consistent [| [| [| 5; 0 |] |]; [||] |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad dimension rejected" true
    (try
       ignore (Lattice.count_consistent [| [| [| 1 |] |]; [||] |]);
       false
     with Invalid_argument _ -> true)

(* Random partial knowledge: each event merges a random earlier snapshot
   of another process before ticking — strobe-like executions whose
   lattices range from the full product to near-chains. *)
let random_stamps ~seed ~n ~k =
  let rng = Psn_util.Rng.create ~seed:(Int64.of_int seed) () in
  let clocks = Array.init n (fun _ -> Array.make n 0) in
  let stamps = Array.init n (fun _ -> Array.make k [||]) in
  let published = Array.init n (fun i -> [ Array.copy clocks.(i) ]) in
  for round = 0 to k - 1 do
    for i = 0 to n - 1 do
      if Psn_util.Rng.bool rng then begin
        let j = Psn_util.Rng.int rng n in
        match published.(j) with
        | s :: _ ->
            Array.iteri
              (fun idx x -> if x > clocks.(i).(idx) then clocks.(i).(idx) <- x)
              s
        | [] -> ()
      end;
      clocks.(i).(i) <- clocks.(i).(i) + 1;
      stamps.(i).(round) <- Array.copy clocks.(i);
      published.(i) <- Array.copy clocks.(i) :: published.(i)
    done
  done;
  stamps

(* Property: pruning never drops below the chain size nor exceeds the
   product, on random strobe-like executions. *)
let test_lattice_bounds =
  qtest ~count:50 "lattice: chain <= consistent <= product" QCheck.int
    (fun seed ->
      let n = 3 and k = 3 in
      let stamps = random_stamps ~seed ~n ~k in
      match Lattice.count_consistent stamps with
      | Lattice.Exact c ->
          c >= (n * k) + 1 && c <= Lattice.verdict_count (Lattice.total_cuts stamps)
      | Lattice.At_least _ -> false)

(* --- the array-cut reference walk --- *)

(* Cuts hashed on every component: [Hashtbl.hash] reads at most ten, so
   wider cuts differing only further right would all collide. *)
module Cut_set = Hashtbl.Make (struct
  type t = Cut.t

  let equal = Cut.equal
  let hash = Hashtbl.hash_param 256 256
end)

(* The differential reference for the packed engine: a FIFO walk over
   fresh array cuts with a visited set of whole cuts, each successor
   checked with [Lattice.is_consistent].  [admit] filters successors
   before they are queued (Definitely's ¬φ walk).  Visits, then counts,
   then caps: the verdict is [At_least cap] once the cap-th cut is
   visited. *)
let reference_walk ?(cap = 2_000_000) ?(admit = fun _ -> true) stamps visit =
  let lens = Lattice.lens stamps in
  let seen = Cut_set.create 1024 in
  let queue = Queue.create () in
  let bottom = Cut.bottom (Array.length stamps) in
  if admit bottom then begin
    Cut_set.replace seen bottom ();
    Queue.add bottom queue
  end;
  let count = ref 0 in
  let capped = ref false in
  while not (Queue.is_empty queue) do
    let cut = Queue.pop queue in
    incr count;
    visit cut;
    if !count >= cap then begin
      capped := true;
      Queue.clear queue
    end
    else
      List.iter
        (fun (_, c) ->
          if
            (not (Cut_set.mem seen c)) && Lattice.is_consistent stamps c && admit c
          then begin
            Cut_set.replace seen c ();
            Queue.add c queue
          end)
        (Cut.successors ~lens cut)
  done;
  if !capped then Lattice.At_least !count else Lattice.Exact !count

let reference_cuts ?cap stamps =
  let acc = ref [] in
  let verdict = reference_walk ?cap stamps (fun c -> acc := c :: !acc) in
  (List.rev !acc, verdict)

(* A chain iff the level-sorted cuts are pairwise ordered; a capped walk
   is not. *)
let reference_is_chain (cuts, verdict) =
  let sorted = List.stable_sort (fun a b -> compare (Cut.level a) (Cut.level b)) cuts in
  let rec pairwise = function
    | a :: (b :: _ as rest) -> Cut.leq a b && pairwise rest
    | [ _ ] | [] -> true
  in
  match verdict with Lattice.Exact _ -> pairwise sorted | Lattice.At_least _ -> false

let reference_possibly ?cap stamps ~holds =
  let found = ref false in
  match reference_walk ?cap stamps (fun c -> if holds c then found := true) with
  | _ when !found -> Some true
  | Lattice.At_least _ -> None
  | Lattice.Exact _ -> Some false

let reference_definitely ?cap stamps ~holds =
  let top = Cut.top (Lattice.lens stamps) in
  let escaped = ref false in
  match
    reference_walk ?cap stamps
      ~admit:(fun c -> not (holds c))
      (fun c -> if Cut.equal c top then escaped := true)
  with
  | _ when !escaped -> Some false
  | Lattice.At_least _ -> None
  | Lattice.Exact _ -> Some true

(* --- stamp-plane executions vs copied stamps --- *)

let same_verdict a b =
  match (a, b) with
  | Lattice.Exact x, Lattice.Exact y | Lattice.At_least x, Lattice.At_least y ->
      x = y
  | _ -> false

let same_cuts xs ys =
  List.length xs = List.length ys && List.for_all2 Cut.equal xs ys


module Sp = Psn_clocks.Stamp_plane

(* Rebuild an execution inside an arena ([initial = 1] so the walk also
   exercises handles that survived growth). *)
let plane_of_stamps (stamps : Lattice.stamps) =
  let n = Array.length stamps in
  let p = Sp.create ~initial:1 ~n () in
  let handles = Array.map (Array.map (Sp.of_array p)) stamps in
  (p, handles)

let plane_matches_arrays ?cap stamps =
  let p, handles = plane_of_stamps stamps in
  same_verdict
    (Lattice.count_consistent_plane ?cap p handles)
    (Lattice.count_consistent ?cap stamps)
  && Lattice.is_chain_plane ?cap p handles = Lattice.is_chain ?cap stamps
  && Lattice.stamps_of_plane p handles = stamps

(* --- packed engine vs the reference walk --- *)

(* The packed walk must reproduce the reference bit for bit: same
   counts, same verdicts, same cut sequence — with and without caps —
   over copied stamps and over a stamp plane alike. *)
let packed_matches_reference ?cap stamps =
  let reference = reference_cuts ?cap stamps in
  let rcuts, rv = reference in
  let chain = reference_is_chain reference in
  let pcuts, pv = Lattice.consistent_cuts ?cap stamps in
  let p, handles = plane_of_stamps stamps in
  same_verdict (Lattice.count_consistent ?cap stamps) rv
  && same_verdict pv rv && same_cuts pcuts rcuts
  && Lattice.is_chain ?cap stamps = chain
  && same_verdict (Lattice.count_consistent_plane ?cap p handles) rv
  && Lattice.is_chain_plane ?cap p handles = chain

module Modal = Psn_lattice.Modal

let modal_matches_reference ?cap stamps ~holds =
  Modal.possibly ?cap stamps ~holds = reference_possibly ?cap stamps ~holds
  && Modal.definitely ?cap stamps ~holds = reference_definitely ?cap stamps ~holds

let test_packed_vs_reference =
  qtest ~count:60 "packed = generic (random executions)" QCheck.int (fun seed ->
      let stamps = random_stamps ~seed ~n:3 ~k:3 in
      packed_matches_reference stamps
      && packed_matches_reference ~cap:7 stamps
      && packed_matches_reference ~cap:1 stamps)

(* Wider executions, where codes need more components than [Hashtbl.hash]
   reads: every query, capped, on random 12x2 and 16x2 strobe-like
   executions, with threshold predicates on two processes. *)
let test_packed_vs_reference_wide =
  qtest ~count:15 "packed = reference (random 12x2, 16x2, capped)"
    QCheck.(quad int small_nat small_nat (int_bound 2))
    (fun (seed, a, b, t) ->
      List.for_all
        (fun n ->
          let stamps = random_stamps ~seed ~n ~k:2 in
          let a = a mod n and b = b mod n in
          let holds (c : Cut.t) = c.(a) >= t && c.(b) < 2 in
          List.for_all
            (fun cap ->
              packed_matches_reference ~cap stamps
              && modal_matches_reference ~cap stamps ~holds)
            [ 1; 40; 1_500 ])
        [ 12; 16 ])

let test_packed_vs_reference_independent () =
  (* The no-communication worst case: every cut consistent. *)
  let stamps = independent ~n:3 ~k:4 in
  Alcotest.(check bool) "free lattice" true (packed_matches_reference stamps);
  Alcotest.(check bool) "free lattice capped" true
    (packed_matches_reference ~cap:100 stamps);
  (match Lattice.count_consistent stamps with
  | Lattice.Exact n -> Alcotest.(check int) "5^3" 125 n
  | Lattice.At_least _ -> Alcotest.fail "capped");
  (* ... and the chain best case. *)
  let chain = chain_stamps ~n:3 ~k:4 in
  Alcotest.(check bool) "chain" true (packed_matches_reference chain);
  Alcotest.(check bool) "chain capped" true (packed_matches_reference ~cap:5 chain)

let test_packed_overflow_fallback () =
  (* 63 processes x 1 event: the full lattice has 2^63 cuts, past an
     int, so codes are hashed — the walk must still match the reference
     (capped), and the box size must say it overflowed. *)
  let stamps = independent ~n:63 ~k:1 in
  Alcotest.check verdict_t "box overflows" (Lattice.At_least max_int)
    (Lattice.total_cuts stamps);
  (match Lattice.count_consistent ~cap:100 stamps with
  | Lattice.At_least n -> Alcotest.(check int) "capped" 100 n
  | Lattice.Exact _ -> Alcotest.fail "expected cap");
  let cuts, _ = Lattice.consistent_cuts ~cap:10 stamps in
  Alcotest.(check int) "enumerates" 10 (List.length cuts);
  Alcotest.(check bool) "63x1 = reference, capped" true
    (packed_matches_reference ~cap:100 stamps);
  (* 40 x 2 chain: 3^40 overflows too, yet the count is exact. *)
  let chain = chain_stamps ~n:40 ~k:2 in
  Alcotest.check verdict_t "chain count" (Lattice.Exact 81)
    (Lattice.count_consistent chain);
  Alcotest.(check bool) "chain" true (Lattice.is_chain chain);
  Alcotest.(check bool) "40x2 chain = reference" true
    (packed_matches_reference chain);
  let top_only (c : Cut.t) = Array.for_all (fun x -> x = 2) c in
  Alcotest.(check (option bool)) "definitely(top)" (Some true)
    (Modal.definitely chain ~holds:top_only);
  Alcotest.(check (option bool)) "definitely(never)" (Some false)
    (Modal.definitely chain ~holds:(fun _ -> false))

let test_total_cuts_overflow () =
  Alcotest.check verdict_t "17 x 10 fits" (Lattice.Exact 505447028499293771)
    (Lattice.total_cuts_of_lens (Array.make 17 10));
  Alcotest.check verdict_t "18 x 10" (Lattice.At_least max_int)
    (Lattice.total_cuts_of_lens (Array.make 18 10));
  Alcotest.check verdict_t "63 x 1" (Lattice.At_least max_int)
    (Lattice.total_cuts_of_lens (Array.make 63 1));
  Alcotest.check verdict_t "61 x 1 fits" (Lattice.Exact (1 lsl 61))
    (Lattice.total_cuts_of_lens (Array.make 61 1))

let test_packed_empty_execution () =
  let stamps = [| [||]; [||] |] in
  Alcotest.(check bool) "empty" true (packed_matches_reference stamps);
  (match Lattice.count_consistent stamps with
  | Lattice.Exact n -> Alcotest.(check int) "just bottom" 1 n
  | Lattice.At_least _ -> Alcotest.fail "capped");
  Alcotest.(check bool) "trivial chain" true (Lattice.is_chain stamps)

(* Definitely asks φ once per cut it builds, so its φ-call count shows
   that a capped walk builds at most [cap] cuts: 1 + 3 cuts on levels
   0-1, then level 2 stops at the remaining budget of 4 of its 6. *)
let test_capped_walk_budget () =
  let stamps = independent ~n:3 ~k:4 in
  let calls = ref 0 in
  let holds _ =
    incr calls;
    false
  in
  Alcotest.(check (option bool)) "capped" None (Modal.definitely ~cap:8 stamps ~holds);
  Alcotest.(check int) "cuts built" 8 !calls

(* The per-level map itself: hashed codes may collide, so equal codes
   over different cuts must stay distinct entries, each found again;
   exact codes hit on the code alone; growth keeps every entry. *)
let test_level_map () =
  let module M = Psn_lattice.Packed.Level_map in
  let m = M.create () in
  (* the level being built: cuts (1,2) at offset 0 and (2,1) at 3 *)
  let level = [| 0; 1; 2; 0; 2; 1 |] in
  (* parents (0,2) at 0, (2,0) at 3 and (1,1) at 6 *)
  let parents = [| 0; 0; 2; 0; 2; 0; 0; 1; 1 |] in
  let find ~exact q o i = M.find_or_add m ~exact ~n:2 level q parents o i 7 in
  M.reset m ~hint:1;
  Alcotest.(check int) "(1,2) new" (-1) (find ~exact:false 0 0 0);
  Alcotest.(check int) "(2,1) new, same code" (-1) (find ~exact:false 3 3 1);
  Alcotest.(check int) "(1,2) again" 0 (find ~exact:false 6 6 1);
  Alcotest.(check int) "(2,1) again" 3 (find ~exact:false 6 6 0);
  M.reset m ~hint:1;
  Alcotest.(check int) "emptied" (-1) (find ~exact:true 0 0 0);
  Alcotest.(check int) "exact: code alone" 0 (find ~exact:true 3 3 1);
  M.reset m ~hint:1;
  let added = ref true in
  for e = 0 to 999 do
    added := !added && M.find_or_add m ~exact:true ~n:2 level e parents 0 0 (e * 17) = -1
  done;
  Alcotest.(check bool) "1000 distinct added" true !added;
  let found = ref true in
  for e = 0 to 999 do
    found := !found && M.find_or_add m ~exact:true ~n:2 level 0 parents 0 0 (e * 17) = e
  done;
  Alcotest.(check bool) "all found after growth" true !found

let test_plane_vs_arrays =
  qtest ~count:60 "plane = copied stamps (random executions)" QCheck.int
    (fun seed ->
      let stamps = random_stamps ~seed ~n:3 ~k:3 in
      plane_matches_arrays stamps
      && plane_matches_arrays ~cap:7 stamps
      && plane_matches_arrays ~cap:1 stamps)

let test_plane_shapes () =
  (* Free lattice and chain, the two extremes. *)
  let free = independent ~n:3 ~k:4 in
  Alcotest.(check bool) "free lattice" true (plane_matches_arrays free);
  let p, handles = plane_of_stamps free in
  (match Lattice.count_consistent_plane p handles with
  | Lattice.Exact n -> Alcotest.(check int) "5^3" 125 n
  | Lattice.At_least _ -> Alcotest.fail "capped");
  let chain = chain_stamps ~n:3 ~k:4 in
  Alcotest.(check bool) "chain" true (plane_matches_arrays chain);
  let cp, ch = plane_of_stamps chain in
  Alcotest.(check bool) "chain verdict" true (Lattice.is_chain_plane cp ch);
  Alcotest.check verdict_t "total from lens" (Lattice.Exact 125)
    (Lattice.total_cuts_of_lens (Array.map Array.length handles))

let test_plane_validation () =
  let stamps = independent ~n:2 ~k:1 in
  let p, handles = plane_of_stamps stamps in
  (* A handle past the live length must be rejected. *)
  let bad = Array.map Array.copy handles in
  bad.(1).(0) <- Sp.width p * Sp.count p;
  Alcotest.(check bool) "dead handle rejected" true
    (try
       Lattice.validate_plane p bad;
       false
     with Invalid_argument _ -> true);
  (* A reset plane invalidates the whole execution. *)
  Sp.reset p;
  Alcotest.(check bool) "reset plane rejected" true
    (try
       Lattice.validate_plane p handles;
       false
     with Invalid_argument _ -> true)

(* --- Modal oracle --- *)

module Expr = Psn_predicates.Expr
module Value = Psn_world.Value

(* Two processes, independent (no communication): p0 writes a:=true then
   a:=false; p1 writes b:=true then b:=false. *)
let modal_updates =
  [|
    [| ("a", Value.Bool true); ("a", Value.Bool false) |];
    [| ("b", Value.Bool true); ("b", Value.Bool false) |];
  |]

let modal_init =
  [
    ({ Expr.name = "a"; loc = 0 }, Value.Bool false);
    ({ Expr.name = "b"; loc = 1 }, Value.Bool false);
  ]

let conj =
  Expr.(
    (var ~name:"a" ~loc:0 ==? bool true) &&& (var ~name:"b" ~loc:1 ==? bool true))

let holds updates = Modal.holds_of_expr ~init:modal_init ~updates conj

let test_modal_possibly_not_definitely () =
  let stamps = independent ~n:2 ~k:2 in
  Alcotest.(check (option bool)) "possibly" (Some true)
    (Modal.possibly stamps ~holds:(holds modal_updates));
  (* A path can interleave a's full pulse before b's: not definite. *)
  Alcotest.(check (option bool)) "not definitely" (Some false)
    (Modal.definitely stamps ~holds:(holds modal_updates))

let test_modal_definitely_with_causality () =
  (* p1's first event knows p0's first, and p0's second knows p1's first:
     every observation passes through {a=true, b=true}. *)
  let stamps =
    [|
      [| [| 1; 0 |]; [| 2; 1 |] |];
      [| [| 1; 1 |]; [| 1; 2 |] |];
    |]
  in
  Alcotest.(check (option bool)) "definitely" (Some true)
    (Modal.definitely stamps ~holds:(holds modal_updates));
  Alcotest.(check (option bool)) "possibly too" (Some true)
    (Modal.possibly stamps ~holds:(holds modal_updates))

let test_modal_never () =
  (* φ requires b=true while p1 never writes it. *)
  let updates =
    [|
      [| ("a", Value.Bool true); ("a", Value.Bool false) |];
      [| ("b", Value.Bool false); ("b", Value.Bool false) |];
    |]
  in
  let stamps = independent ~n:2 ~k:2 in
  Alcotest.(check (option bool)) "not possibly" (Some false)
    (Modal.possibly stamps ~holds:(holds updates));
  Alcotest.(check (option bool)) "not definitely" (Some false)
    (Modal.definitely stamps ~holds:(holds updates))

(* The fused packed modalities must agree with the reference walk —
   same Some/None verdicts, with and without caps — on random
   executions and random threshold predicates. *)
let test_modal_packed_vs_reference =
  qtest ~count:60 "modal: packed = generic"
    QCheck.(pair int (triple (int_bound 3) (int_bound 3) (int_bound 3)))
    (fun (seed, (t0, t1, t2)) ->
      let stamps = random_stamps ~seed ~n:3 ~k:3 in
      let holds (c : Cut.t) = c.(0) >= t0 && c.(1) >= t1 && c.(2) <= t2 in
      modal_matches_reference stamps ~holds
      && modal_matches_reference ~cap:5 stamps ~holds)

let test_modal_definitely_implies_possibly =
  qtest ~count:60 "modal: definitely => possibly" QCheck.int (fun seed ->
      let rng = Psn_util.Rng.create ~seed:(Int64.of_int seed) () in
      (* Random 2x2 update values over booleans. *)
      let updates =
        Array.init 2 (fun i ->
            Array.init 2 (fun _ ->
                ((if i = 0 then "a" else "b"), Value.Bool (Psn_util.Rng.bool rng))))
      in
      let stamps = independent ~n:2 ~k:2 in
      match
        ( Modal.definitely stamps ~holds:(holds updates),
          Modal.possibly stamps ~holds:(holds updates) )
      with
      | Some true, p -> p = Some true
      | _ -> true)

let test_lattice_to_dot () =
  let stamps = chain_stamps ~n:2 ~k:1 in
  let dot = Lattice.to_dot stamps in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  (* 3 cuts in the chain, 2 edges. *)
  let count_sub sub s =
    let n = String.length s and m = String.length sub in
    let rec go i acc =
      if i + m > n then acc
      else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "edges" 2 (count_sub "->" dot)

let test_modal_cut_env () =
  let env = Modal.cut_env ~init:modal_init ~updates:modal_updates [| 1; 0 |] in
  Alcotest.(check bool) "a after first write" true
    (env { Expr.name = "a"; loc = 0 } = Some (Value.Bool true));
  Alcotest.(check bool) "b from init" true
    (env { Expr.name = "b"; loc = 1 } = Some (Value.Bool false));
  Alcotest.(check bool) "unknown loc" true (env { Expr.name = "x"; loc = 9 } = None)

(* The rescan [Modal.cut_env] replaced, kept as its reference: the
   latest write to [v] among the first [cut.(loc)] updates of loc, else
   [init]. *)
let rescan_env ~init ~(updates : (string * Value.t) array array) (cut : Cut.t)
    (v : Expr.var) =
  if v.loc < 0 || v.loc >= Array.length updates then None
  else begin
    let best = ref None in
    for k = 0 to cut.(v.loc) - 1 do
      let name, value = updates.(v.loc).(k) in
      if String.equal name v.name then best := Some value
    done;
    match !best with Some _ -> !best | None -> List.assoc_opt v init
  end

let test_cut_env_vs_rescan =
  qtest ~count:100 "modal: cut_env = rescan" QCheck.int (fun seed ->
      let rng = Psn_util.Rng.create ~seed:(Int64.of_int seed) () in
      let names = [| "a"; "b"; "c" |] in
      let updates =
        Array.init 3 (fun _ ->
            Array.init (Psn_util.Rng.int rng 7) (fun _ ->
                (Psn_util.Rng.pick rng names, Value.Int (Psn_util.Rng.int rng 5))))
      in
      let init =
        [
          ({ Expr.name = "a"; loc = 0 }, Value.Int 9);
          ({ Expr.name = "c"; loc = 2 }, Value.Int 8);
          ({ Expr.name = "b"; loc = 7 }, Value.Int 7);
        ]
      in
      let env = Modal.cut_env ~init ~updates in
      let lens = Array.map Array.length updates in
      let ok = ref true in
      for c0 = 0 to lens.(0) do
        for c1 = 0 to lens.(1) do
          for c2 = 0 to lens.(2) do
            let cut = [| c0; c1; c2 |] in
            for loc = -1 to 7 do
              Array.iter
                (fun name ->
                  let v = { Expr.name; loc } in
                  if env cut v <> rescan_env ~init ~updates cut v then ok := false)
                names
            done
          done
        done
      done;
      !ok)

(* --- streaming frontier lattice vs packed post-hoc --- *)

module Streaming = Psn_lattice.Streaming

(* Feed a finished execution into a streaming detector, round-robin
   across processes (cross-process arrival order is arbitrary by
   contract; only per-process order matters), then [finish]. *)
let stream_of_stamps ?cap ?on_edge ~holds stamps =
  let n = Array.length stamps in
  let t = Streaming.create ~n ?cap ?on_edge ~holds () in
  let k = Array.fold_left (fun m e -> max m (Array.length e)) 0 stamps in
  for round = 0 to k - 1 do
    for i = 0 to n - 1 do
      if round < Array.length stamps.(i) then
        Streaming.observe t ~pid:i ~stamp:stamps.(i).(round)
    done
  done;
  Streaming.finish t;
  t

(* A small family of cut predicates indexed by the qcheck seed: exact
   cuts, thresholds, and parities — enough to hit φ(⊥), unreachable φ,
   and mid-lattice φ shapes. *)
let holds_family sel stamps =
  let n = Array.length stamps in
  let lens = Array.map Array.length stamps in
  match sel mod 4 with
  | 0 -> fun (c : int array) -> Array.for_all (fun x -> x = 0) c (* φ(⊥) *)
  | 1 ->
      (* the middle-ish diagonal cut *)
      fun c ->
        let ok = ref true in
        for i = 0 to n - 1 do
          if c.(i) <> (lens.(i) + 1) / 2 then ok := false
        done;
        !ok
  | 2 -> fun c -> Array.fold_left ( + ) 0 c mod 3 = 1
  | _ -> fun _ -> false (* unreachable φ *)

(* Non-negotiable oracle: on any bounded prefix, streaming verdicts and
   committed-cut counts equal [Packed] run post-hoc on that prefix. *)
let streaming_matches_packed ?cap ~holds stamps =
  let t = stream_of_stamps ?cap ~holds stamps in
  let count = Lattice.count_consistent stamps in
  let poss = Modal.possibly stamps ~holds in
  let defi = Modal.definitely stamps ~holds in
  (match (Streaming.committed_cuts t, count) with
  | Lattice.Exact a, Lattice.Exact b -> a = b
  | _ -> false)
  && Streaming.possibly t = poss
  && Streaming.definitely t = defi

let test_streaming_vs_packed =
  qtest ~count:80 "streaming = packed (random prefixes)"
    QCheck.(quad int (int_bound 3) (int_bound 3) (int_bound 3))
    (fun (seed, p0, p1, p2) ->
      let stamps = random_stamps ~seed ~n:3 ~k:3 in
      (* bounded prefix: truncate each process independently *)
      let prefix = [| p0; p1; p2 |] in
      let stamps =
        Array.mapi (fun i evs -> Array.sub evs 0 prefix.(i)) stamps
      in
      List.for_all
        (fun sel -> streaming_matches_packed ~holds:(holds_family sel stamps) stamps)
        [ seed; seed + 1; seed + 2; seed + 3 ])

let test_streaming_empty () =
  let stamps = [| [||]; [||]; [||] |] in
  let t = stream_of_stamps ~holds:(fun _ -> false) stamps in
  (match Streaming.committed_cuts t with
  | Lattice.Exact c -> Alcotest.(check int) "one cut" 1 c
  | Lattice.At_least _ -> Alcotest.fail "capped");
  Alcotest.(check bool) "possibly" true (Streaming.possibly t = Some false);
  Alcotest.(check bool) "definitely" true (Streaming.definitely t = Some false);
  let t = stream_of_stamps ~holds:(fun _ -> true) stamps in
  Alcotest.(check bool) "possibly ⊥" true (Streaming.possibly t = Some true);
  Alcotest.(check bool) "definitely ⊥" true (Streaming.definitely t = Some true)

let test_streaming_cap () =
  (* Independent stamps: the slab at mid level is the binomial bulge;
     a small cap must freeze the walk, not crash it, and leave decided
     answers decided. *)
  let stamps = independent ~n:3 ~k:4 in
  let t = stream_of_stamps ~cap:5 ~holds:(fun _ -> false) stamps in
  Alcotest.(check bool) "capped" true (Streaming.capped t);
  (match Streaming.committed_cuts t with
  | Lattice.At_least c -> Alcotest.(check bool) "lower bound" true (c <= 125)
  | Lattice.Exact _ -> Alcotest.fail "should have capped");
  Alcotest.(check bool) "possibly undecided" true (Streaming.possibly t = None);
  Alcotest.(check bool) "definitely undecided" true
    (Streaming.definitely t = None)

let test_streaming_overflow_fallback () =
  (* 40 processes, round-robin arrival: the live window's radix product
     overflows a tagged int mid-run, engaging the hashed-component
     fallback — counts must still be exact on this (chain) lattice. *)
  let n = 40 and k = 2 in
  let stamps = chain_stamps ~n ~k in
  let t = stream_of_stamps ~holds:(fun _ -> false) stamps in
  Alcotest.(check bool) "overflow engaged" true (Streaming.overflowed t);
  (match Streaming.committed_cuts t with
  | Lattice.Exact c -> Alcotest.(check int) "chain count" ((n * k) + 1) c
  | Lattice.At_least _ -> Alcotest.fail "capped");
  Alcotest.(check bool) "definitely false" true
    (Streaming.definitely t = Some false)

let test_streaming_online_edges () =
  (* On a chain, Definitely(φ at the midpoint) is decidable long before
     the run ends: the edge must fire during [observe], not at
     [finish]. *)
  let n = 3 and k = 4 in
  let stamps = chain_stamps ~n ~k in
  let mid = [| 2; 0; 0 |] in
  let holds c = Array.for_all2 ( = ) c mid in
  let edges = ref [] in
  let t =
    Streaming.create ~n ~on_edge:(fun e -> edges := e :: !edges) ~holds ()
  in
  for i = 0 to n - 1 do
    for r = 0 to k - 1 do
      Streaming.observe t ~pid:i ~stamp:stamps.(i).(r)
    done
  done;
  let fired_before_finish =
    List.exists (function Streaming.Definitely_holds _ -> true | _ -> false)
      !edges
    && List.exists (function Streaming.Possibly_holds _ -> true | _ -> false)
         !edges
  in
  Alcotest.(check bool) "edges before finish" true fired_before_finish;
  Streaming.finish t;
  Alcotest.(check bool) "definitely" true (Streaming.definitely t = Some true);
  Alcotest.(check bool) "possibly" true (Streaming.possibly t = Some true)

let test_streaming_observe_validation () =
  let t = Streaming.create ~n:2 ~holds:(fun _ -> false) () in
  Alcotest.(check bool) "own component" true
    (try
       Streaming.observe t ~pid:0 ~stamp:[| 2; 0 |];
       false
     with Invalid_argument _ -> true);
  Streaming.observe t ~pid:0 ~stamp:[| 1; 0 |];
  Alcotest.(check bool) "width" true
    (try
       Streaming.observe t ~pid:1 ~stamp:[| 1 |];
       false
     with Invalid_argument _ -> true);
  Streaming.close_pid t ~pid:0;
  Alcotest.(check bool) "closed pid rejects" true
    (try
       Streaming.observe t ~pid:0 ~stamp:[| 2; 0 |];
       false
     with Invalid_argument _ -> true)

(* The bounded-memory claim, on the PR 6 horizon-test pattern: a 10x
   longer strobe-like run must not widen the peak live slab (fixed
   seeds, so the assertion is deterministic), while the committed total
   keeps growing with run length. *)
let test_streaming_bounded_memory () =
  let run k =
    let stamps = random_stamps ~seed:42 ~n:3 ~k in
    let t = stream_of_stamps ~holds:(fun _ -> false) stamps in
    ( Streaming.peak_live_cuts t,
      Streaming.peak_live_events t,
      Lattice.verdict_count (Streaming.committed_cuts t) )
  in
  let peak_10k, peak_ev_10k, cuts_10k = run 3_334 in
  let peak_100k, peak_ev_100k, cuts_100k = run 33_334 in
  Alcotest.(check bool) "cuts grow with run length" true
    (cuts_100k > 5 * cuts_10k);
  Alcotest.(check bool)
    (Printf.sprintf "peak live cuts flat (%d vs %d)" peak_10k peak_100k)
    true
    (peak_100k <= (2 * peak_10k) + 16);
  Alcotest.(check bool)
    (Printf.sprintf "peak live events flat (%d vs %d)" peak_ev_10k peak_ev_100k)
    true
    (peak_ev_100k <= (2 * peak_ev_10k) + 16)

let () =
  Alcotest.run "psn_lattice"
    [
      ( "modal",
        [
          Alcotest.test_case "possibly not definitely" `Quick
            test_modal_possibly_not_definitely;
          Alcotest.test_case "definitely with causality" `Quick
            test_modal_definitely_with_causality;
          Alcotest.test_case "never" `Quick test_modal_never;
          test_modal_definitely_implies_possibly;
          test_modal_packed_vs_reference;
          Alcotest.test_case "cut_env" `Quick test_modal_cut_env;
          test_cut_env_vs_rescan;
        ] );
      ( "cut",
        [
          Alcotest.test_case "basics" `Quick test_cut_basics;
          Alcotest.test_case "join/meet" `Quick test_cut_lattice_ops;
          test_cut_lattice_laws;
          Alcotest.test_case "successors" `Quick test_cut_successors;
        ] );
      ( "lattice",
        [
          Alcotest.test_case "independent" `Quick test_lattice_independent_count;
          Alcotest.test_case "chain" `Quick test_lattice_chain;
          Alcotest.test_case "message prunes" `Quick test_lattice_message_prunes;
          Alcotest.test_case "is_consistent" `Quick test_lattice_is_consistent;
          Alcotest.test_case "bfs = brute force" `Quick
            test_lattice_enumerate_matches_bruteforce;
          Alcotest.test_case "meet/join closure" `Quick
            test_lattice_closure_under_meet_join;
          Alcotest.test_case "cap" `Quick test_lattice_cap;
          Alcotest.test_case "validate" `Quick test_lattice_validate;
          Alcotest.test_case "total cuts overflow" `Quick test_total_cuts_overflow;
          test_lattice_bounds;
          Alcotest.test_case "to_dot" `Quick test_lattice_to_dot;
        ] );
      ( "packed",
        [
          test_packed_vs_reference;
          Alcotest.test_case "independent + chain" `Quick
            test_packed_vs_reference_independent;
          Alcotest.test_case "overflow fallback" `Quick
            test_packed_overflow_fallback;
          Alcotest.test_case "empty execution" `Quick
            test_packed_empty_execution;
          test_packed_vs_reference_wide;
          Alcotest.test_case "level map" `Quick test_level_map;
          Alcotest.test_case "capped walk stays in budget" `Quick
            test_capped_walk_budget;
        ] );
      ( "stamp_plane",
        [
          test_plane_vs_arrays;
          Alcotest.test_case "shapes" `Quick test_plane_shapes;
          Alcotest.test_case "validation" `Quick test_plane_validation;
        ] );
      ( "streaming",
        [
          test_streaming_vs_packed;
          Alcotest.test_case "empty execution" `Quick test_streaming_empty;
          Alcotest.test_case "cap freezes" `Quick test_streaming_cap;
          Alcotest.test_case "overflow fallback" `Quick
            test_streaming_overflow_fallback;
          Alcotest.test_case "online edges" `Quick test_streaming_online_edges;
          Alcotest.test_case "observe validation" `Quick
            test_streaming_observe_validation;
          Alcotest.test_case "bounded memory at 100k events" `Quick
            test_streaming_bounded_memory;
        ] );
    ]
