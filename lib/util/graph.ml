(* Simple mutable undirected graph on integer nodes [0, n).

   Models both overlays of the paper's model: L (the network plane overlay
   over which processes communicate) and C (the world plane overlay over
   which objects communicate covertly).  Both are "dynamically changing
   graphs" in the paper, hence the mutable edge set. *)

module Int_set = Set.Make (Int)

type t = {
  n : int;
  adj : Int_set.t array;
}

let create ~n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { n; adj = Array.make n Int_set.empty }

let size t = t.n

let check t v =
  if v < 0 || v >= t.n then invalid_arg "Graph: node out of range"

let add_edge t u v =
  check t u;
  check t v;
  if u <> v then begin
    t.adj.(u) <- Int_set.add v t.adj.(u);
    t.adj.(v) <- Int_set.add u t.adj.(v)
  end

let remove_edge t u v =
  check t u;
  check t v;
  t.adj.(u) <- Int_set.remove v t.adj.(u);
  t.adj.(v) <- Int_set.remove u t.adj.(v)

let has_edge t u v =
  check t u;
  check t v;
  Int_set.mem v t.adj.(u)

let neighbors t u =
  check t u;
  Int_set.elements t.adj.(u)

let degree t u =
  check t u;
  Int_set.cardinal t.adj.(u)

let edge_count t =
  Array.fold_left (fun acc s -> acc + Int_set.cardinal s) 0 t.adj / 2

(* BFS distances from [src]; unreachable nodes get -1. *)
let bfs_dist t src =
  check t src;
  let dist = Array.make t.n (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Int_set.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      t.adj.(u)
  done;
  dist

let connected t =
  t.n <= 1
  || begin
       let dist = bfs_dist t 0 in
       Array.for_all (fun d -> d >= 0) dist
     end

let complete ~n =
  let t = create ~n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      add_edge t u v
    done
  done;
  t

let ring ~n =
  let t = create ~n in
  if n > 1 then
    for u = 0 to n - 1 do
      add_edge t u ((u + 1) mod n)
    done;
  t

let star ~n =
  let t = create ~n in
  for v = 1 to n - 1 do
    add_edge t 0 v
  done;
  t

(* Random geometric graph: nodes uniform in the unit square, edge iff
   distance <= radius.  Standard model for wireless sensornet topologies. *)
let random_geometric rng ~n ~radius =
  let pos = Array.init n (fun _ -> Vec2.make (Rng.unit_float rng) (Rng.unit_float rng)) in
  let t = create ~n in
  let r2 = radius *. radius in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Vec2.dist2 pos.(u) pos.(v) <= r2 then add_edge t u v
    done
  done;
  (pos, t)

(* BFS spanning tree rooted at [root]: parent.(root) = root, -1 if
   unreachable.  Used by the TPSN-style sync protocol. *)
let spanning_tree t root =
  check t root;
  let parent = Array.make t.n (-1) in
  parent.(root) <- root;
  let q = Queue.create () in
  Queue.add root q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Int_set.iter
      (fun v ->
        if parent.(v) < 0 then begin
          parent.(v) <- u;
          Queue.add v q
        end)
      t.adj.(u)
  done;
  parent
