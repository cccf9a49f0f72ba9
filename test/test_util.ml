(* Tests for psn_util: rng, vec, heap, stats, table, graph, bitset, vec2,
   parallel. *)

module Rng = Psn_util.Rng
module Vec = Psn_util.Vec
module Stats = Psn_util.Stats
module Table = Psn_util.Table
module Graph = Psn_util.Graph
module Bitset = Psn_util.Bitset
module Vec2 = Psn_util.Vec2
module Parallel = Psn_util.Parallel

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7L () and b = Rng.create ~seed:7L () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_differs () =
  let a = Rng.create ~seed:7L () and b = Rng.create ~seed:8L () in
  Alcotest.(check bool) "different streams" false (Rng.int64 a = Rng.int64 b)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7L () in
  let child = Rng.split parent in
  (* The child must not replay the parent's stream. *)
  let c = Rng.int64 child and p = Rng.int64 parent in
  Alcotest.(check bool) "independent" false (Int64.equal c p)

let test_rng_int_bounds =
  qtest "rng: int in [0,bound)" QCheck.(pair int small_int) (fun (seed, b) ->
      let b = b + 1 in
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let x = Rng.int rng b in
      x >= 0 && x < b)

let test_rng_int_invalid () =
  let rng = Rng.create () in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_unit_float =
  qtest "rng: unit_float in [0,1)" QCheck.int (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let x = Rng.unit_float rng in
      x >= 0.0 && x < 1.0)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:3L () in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:2.5
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 2.5" true (Float.abs (mean -. 2.5) < 0.1)

let test_rng_poisson_mean () =
  let rng = Rng.create ~seed:5L () in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.poisson rng ~mean:4.0
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 4.0" true (Float.abs (mean -. 4.0) < 0.15)

let test_rng_poisson_large_mean () =
  let rng = Rng.create ~seed:5L () in
  let n = 5_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.poisson rng ~mean:50.0
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 50" true (Float.abs (mean -. 50.0) < 2.0)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:9L () in
  let n = 50_000 in
  let stats = Stats.create () in
  for _ = 1 to n do
    Stats.add stats (Rng.gaussian rng ~mu:10.0 ~sigma:3.0)
  done;
  Alcotest.(check bool) "mu" true (Float.abs (Stats.mean stats -. 10.0) < 0.1);
  Alcotest.(check bool) "sigma" true (Float.abs (Stats.stddev stats -. 3.0) < 0.1)

let test_rng_shuffle_permutation =
  qtest "rng: shuffle is a permutation" QCheck.(pair int (list int))
    (fun (seed, l) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_rng_weighted () =
  let rng = Rng.create ~seed:1L () in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let i = Rng.weighted rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "heavy bucket dominates" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  Alcotest.(check bool) "rough proportion" true
    (abs (counts.(2) - 7000) < 500)

let test_rng_geometric () =
  let rng = Rng.create ~seed:2L () in
  Alcotest.(check int) "p=1 gives 1" 1 (Rng.geometric rng ~p:1.0);
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng ~p:0.25
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 4" true (Float.abs (mean -. 4.0) < 0.2)

let test_rng_pareto_bounds =
  qtest "rng: pareto >= scale" QCheck.int (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      Rng.pareto rng ~scale:2.0 ~shape:1.5 >= 2.0)

(* --- Vec --- *)

let test_vec_push_get () =
  let v = Vec.create ~dummy:0 () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 0" 0 (Vec.get v 0);
  Alcotest.(check int) "get 99" 99 (Vec.get v 99);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 100))

let test_vec_roundtrip =
  qtest "vec: of_list/to_list roundtrip" QCheck.(list int) (fun l ->
      Vec.to_list (Vec.of_list ~dummy:0 l) = l)

let test_vec_pop () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Alcotest.(check (option int)) "pop 3" (Some 3) (Vec.pop v);
  Alcotest.(check (option int)) "last 2" (Some 2) (Vec.last v);
  Alcotest.(check int) "len 2" 2 (Vec.length v);
  Vec.clear v;
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v)

let test_vec_iter_fold () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold sum" 10 (Vec.fold_left ( + ) 0 v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check int) "iteri count" 4 (List.length !acc);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check (option int)) "find" (Some 4) (Vec.find_opt (fun x -> x > 3) v)

let test_vec_set () =
  let v = Vec.of_list ~dummy:0 [ 1; 2 ] in
  Vec.set v 0 42;
  Alcotest.(check int) "set" 42 (Vec.get v 0);
  Alcotest.check_raises "set out of bounds"
    (Invalid_argument "Vec.set: index out of bounds") (fun () -> Vec.set v 5 0)

(* --- Heap --- *)

let test_heap_sorts =
  qtest "heap: drain is sorted" QCheck.(list int) (fun l ->
      let h = Heap.of_list ~cmp:compare ~dummy:0 l in
      Heap.drain h = List.sort compare l)

let test_heap_peek_pop () =
  let h = Heap.create ~cmp:compare ~dummy:0 () in
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Heap.add h 5;
  Heap.add h 1;
  Heap.add h 3;
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check (option int)) "pop min" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop next" (Some 3) (Heap.pop h);
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let test_heap_custom_cmp () =
  let h = Heap.of_list ~cmp:(fun a b -> compare b a) ~dummy:0 [ 1; 5; 3 ] in
  Alcotest.(check (option int)) "max-heap pop" (Some 5) (Heap.pop h)

(* Regression: [pop] must clear the vacated slot; before the fix, the
   backing array kept the moved element reachable after the pop, so a
   popped payload could never be collected while the heap lived. *)
let test_heap_pop_releases () =
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) ~dummy:(0, "") () in
  let weak = Weak.create 1 in
  (* Allocate the payload in a separate function so no local keeps it
     alive after the pops. *)
  (let payload = (1, String.make 64 'x') in
   Weak.set weak 0 (Some payload);
   Heap.add h payload;
   Heap.add h (2, "keep"));
  ignore (Heap.pop h);
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" false (Weak.check weak 0);
  Alcotest.(check int) "survivor still queued" 1 (Heap.length h)

(* --- Stats --- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max_value s);
  Alcotest.(check (float 1e-6)) "variance" (32.0 /. 7.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check (float 0.0)) "variance 0" 0.0 (Stats.variance s)

let test_stats_merge =
  qtest "stats: merge = combined" QCheck.(pair (list (float_bound_exclusive 100.0)) (list (float_bound_exclusive 100.0)))
    (fun (l1, l2) ->
      let a = Stats.of_array (Array.of_list l1) in
      let b = Stats.of_array (Array.of_list l2) in
      let m = Stats.merge a b in
      let all = Stats.of_array (Array.of_list (l1 @ l2)) in
      Stats.count m = Stats.count all
      && (Stats.count all = 0
         || Float.abs (Stats.mean m -. Stats.mean all) < 1e-6)
      && Float.abs (Stats.variance m -. Stats.variance all) < 1e-6)

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (Stats.percentile xs 25.0);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median xs)

let test_stats_histogram () =
  let h = Stats.histogram_create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Stats.histogram_add h) [ -1.0; 0.0; 0.5; 5.0; 9.99; 10.0; 42.0 ];
  Alcotest.(check int) "underflow" 1 (Stats.histogram_underflow h);
  Alcotest.(check int) "overflow" 2 (Stats.histogram_overflow h);
  Alcotest.(check int) "total" 7 (Stats.histogram_total h);
  let bins = Stats.histogram_bins h in
  Alcotest.(check int) "bin0" 2 bins.(0);
  Alcotest.(check int) "bin5" 1 bins.(5);
  Alcotest.(check int) "bin9" 1 bins.(9)

(* --- Table --- *)

let test_table_render () =
  let s =
    Table.render ~headers:[ "a"; "bb" ] ~rows:[ [ "x"; "1" ]; [ "yy"; "22" ] ] ()
  in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 1 = "|");
  (* All lines equal width. *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let widths = List.map String.length lines in
  Alcotest.(check bool) "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_mismatch () =
  Alcotest.check_raises "row width"
    (Invalid_argument "Table.render: row width does not match headers")
    (fun () -> ignore (Table.render ~headers:[ "a" ] ~rows:[ [ "1"; "2" ] ] ()))

let test_table_fmt () =
  Alcotest.(check string) "float" "1.500" (Table.fmt_float 1.5);
  Alcotest.(check string) "pct" "12.5%" (Table.fmt_pct 0.125);
  Alcotest.(check string) "nan" "nan" (Table.fmt_float Float.nan)

(* --- Graph --- *)

let test_graph_basic () =
  let g = Graph.create ~n:4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Alcotest.(check bool) "edge 0-1" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "symmetric" true (Graph.has_edge g 1 0);
  Alcotest.(check bool) "no edge" false (Graph.has_edge g 0 2);
  Alcotest.(check int) "edges" 2 (Graph.edge_count g);
  Alcotest.(check int) "degree" 2 (Graph.degree g 1);
  Graph.add_edge g 2 2;
  Alcotest.(check int) "self-loop ignored" 2 (Graph.edge_count g);
  Graph.remove_edge g 0 1;
  Alcotest.(check bool) "removed" false (Graph.has_edge g 0 1)

let test_graph_bfs () =
  let g = Graph.ring ~n:6 in
  let d = Graph.bfs_dist g 0 in
  Alcotest.(check int) "d(3)" 3 d.(3);
  Alcotest.(check int) "d(5)" 1 d.(5);
  Alcotest.(check bool) "connected" true (Graph.connected g);
  Graph.remove_edge g 0 1;
  Graph.remove_edge g 1 2;
  Alcotest.(check bool) "disconnected" false (Graph.connected g)

let test_graph_generators () =
  let c = Graph.complete ~n:5 in
  Alcotest.(check int) "complete edges" 10 (Graph.edge_count c);
  let s = Graph.star ~n:5 in
  Alcotest.(check int) "star edges" 4 (Graph.edge_count s);
  Alcotest.(check int) "hub degree" 4 (Graph.degree s 0)

let test_graph_spanning_tree () =
  let g = Graph.ring ~n:5 in
  let parent = Graph.spanning_tree g 0 in
  Alcotest.(check int) "root parent" 0 parent.(0);
  Array.iteri
    (fun i p -> if i <> 0 then Alcotest.(check bool) "has parent" true (p >= 0))
    parent

let test_graph_random_geometric () =
  let rng = Rng.create ~seed:4L () in
  let pos, g = Graph.random_geometric rng ~n:30 ~radius:2.0 in
  (* radius 2 > diagonal of the unit square: complete graph. *)
  Alcotest.(check int) "complete" (30 * 29 / 2) (Graph.edge_count g);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "in unit square" true
        (Vec2.x p >= 0.0 && Vec2.x p < 1.0 && Vec2.y p >= 0.0 && Vec2.y p < 1.0))
    pos

(* --- Bitset --- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 64;
  Bitset.set b 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "mem 1" false (Bitset.mem b 1);
  Bitset.clear b 63;
  Alcotest.(check bool) "cleared" false (Bitset.mem b 63);
  Alcotest.(check (list int)) "to_list" [ 0; 64; 99 ] (Bitset.to_list b)

let test_bitset_set_ops =
  qtest "bitset: union/inter cardinality" QCheck.(pair (list (int_bound 63)) (list (int_bound 63)))
    (fun (l1, l2) ->
      let mk l =
        let b = Bitset.create 64 in
        List.iter (Bitset.set b) l;
        b
      in
      let a = mk l1 and b = mk l2 in
      let u = Bitset.union a b and i = Bitset.inter a b in
      Bitset.cardinal u + Bitset.cardinal i
      = Bitset.cardinal a + Bitset.cardinal b)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set b 8)

(* --- Vec2 --- *)

let test_vec2 () =
  let a = Vec2.make 3.0 4.0 in
  Alcotest.(check (float 1e-9)) "norm" 5.0 (Vec2.norm a);
  Alcotest.(check (float 1e-9)) "dist" 5.0 (Vec2.dist Vec2.zero a);
  let m = Vec2.lerp Vec2.zero a 0.5 in
  Alcotest.(check (float 1e-9)) "lerp x" 1.5 (Vec2.x m);
  let u = Vec2.normalize a in
  Alcotest.(check (float 1e-9)) "unit" 1.0 (Vec2.norm u);
  Alcotest.(check bool) "normalize zero" true
    (Vec2.equal (Vec2.normalize Vec2.zero) Vec2.zero);
  Alcotest.(check (float 1e-9)) "dot" 25.0 (Vec2.dot a a)

(* --- Parallel --- *)

let test_parallel_matches_sequential =
  qtest ~count:30 "parallel: map_array = Array.map" QCheck.(list small_int)
    (fun l ->
      let a = Array.of_list l in
      Parallel.map_array ~domains:4 (fun x -> x * x) a
      = Array.map (fun x -> x * x) a)

let test_parallel_init () =
  let a = Parallel.init ~domains:3 10 (fun i -> i * 2) in
  Alcotest.(check (array int)) "init" (Array.init 10 (fun i -> i * 2)) a

let test_parallel_empty () =
  Alcotest.(check (array int)) "empty" [||]
    (Parallel.map_array (fun x -> x) [||])

(* The pool persists between maps: repeated dispatches must all produce
   input-order results (this exercises the generation handshake rather
   than a fresh spawn/join per call). *)
let test_parallel_pool_reuse () =
  for round = 1 to 20 do
    let a =
      Parallel.map_array ~domains:4 (fun i -> (i * round) + 1)
        (Array.init 100 (fun i -> i))
    in
    Alcotest.(check (array int))
      (Printf.sprintf "round %d" round)
      (Array.init 100 (fun i -> (i * round) + 1))
      a
  done

let test_parallel_exception () =
  Alcotest.check_raises "task exception reaches caller" Exit (fun () ->
      ignore
        (Parallel.map_array ~domains:4
           (fun i -> if i = 37 then raise Exit else i)
           (Array.init 64 (fun i -> i))));
  (* The pool must still be usable after a failed job. *)
  let a = Parallel.init ~domains:4 16 (fun i -> i + 1) in
  Alcotest.(check (array int)) "pool alive after exn"
    (Array.init 16 (fun i -> i + 1))
    a

let test_parallel_nested () =
  (* A map inside a pooled task must not deadlock; it runs sequentially. *)
  let a =
    Parallel.map_array ~domains:2
      (fun i ->
        Array.fold_left ( + ) 0 (Parallel.init ~domains:2 4 (fun j -> i + j)))
      (Array.init 8 (fun i -> i))
  in
  let expected = Array.init 8 (fun i -> (4 * i) + 6) in
  Alcotest.(check (array int)) "nested map" expected a

let () =
  Alcotest.run "psn_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed differs" `Quick test_rng_seed_differs;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          test_rng_unit_float;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
          Alcotest.test_case "poisson large mean" `Quick test_rng_poisson_large_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          test_rng_shuffle_permutation;
          Alcotest.test_case "weighted" `Quick test_rng_weighted;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
          test_rng_pareto_bounds;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          test_vec_roundtrip;
          Alcotest.test_case "pop/clear" `Quick test_vec_pop;
          Alcotest.test_case "iter/fold" `Quick test_vec_iter_fold;
          Alcotest.test_case "set" `Quick test_vec_set;
        ] );
      ( "heap",
        [
          test_heap_sorts;
          Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
          Alcotest.test_case "custom cmp" `Quick test_heap_custom_cmp;
          Alcotest.test_case "pop releases slot" `Quick test_heap_pop_releases;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          test_stats_merge;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "mismatch" `Quick test_table_mismatch;
          Alcotest.test_case "fmt" `Quick test_table_fmt;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "bfs/connected" `Quick test_graph_bfs;
          Alcotest.test_case "generators" `Quick test_graph_generators;
          Alcotest.test_case "spanning tree" `Quick test_graph_spanning_tree;
          Alcotest.test_case "random geometric" `Quick test_graph_random_geometric;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          test_bitset_set_ops;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        ] );
      ("vec2", [ Alcotest.test_case "ops" `Quick test_vec2 ]);
      ( "parallel",
        [
          test_parallel_matches_sequential;
          Alcotest.test_case "init" `Quick test_parallel_init;
          Alcotest.test_case "empty" `Quick test_parallel_empty;
          Alcotest.test_case "pool reuse" `Quick test_parallel_pool_reuse;
          Alcotest.test_case "exception" `Quick test_parallel_exception;
          Alcotest.test_case "nested" `Quick test_parallel_nested;
        ] );
    ]
