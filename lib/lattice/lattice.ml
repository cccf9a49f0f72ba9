(* The lattice of consistent global states (paper §4.1, §4.2.4).

   Input: per-process sequences of vector stamps, one per event, where the
   own component of process i's k-th event equals k (1-based) — true for
   Mattern/Fidge clocks ticking on every event and for strobe vectors over
   sense events.  A cut c is consistent iff every included event's causal
   prerequisites are included:

       ∀ i with c.(i) > 0, ∀ j ≠ i:  V(e_i^{c_i})[j] <= c.(j)

   Counting walks the sublattice breadth-first from the bottom cut, which
   is sound because the consistent cuts are closed under meet/join and
   every consistent cut is reachable from bottom through consistent cuts.

   The size of the sublattice is the paper's measure of how well control
   messages approximate a single time axis: no communication at all makes
   every cut consistent (O(p^n) states); strobing at each relevant event
   with Δ = 0 collapses it to a single chain of n·p + 1 cuts ("slim
   lattice postulate").

   Every walk runs on the packed-cut engine ([Packed]): a cut is a flat
   entry of its code and components, and the BFS runs allocation-free
   over flat int frontiers with a per-level dedup map, whatever the
   execution size. *)

type verdict = Packed.verdict = Exact of int | At_least of int

type stamps = int array array array
(* stamps.(i).(k): vector stamp of process i's (k+1)-th event *)

let lens (stamps : stamps) = Array.map Array.length stamps

let validate (stamps : stamps) =
  Array.iteri
    (fun i evs ->
      Array.iteri
        (fun k v ->
          if Array.length v <> Array.length stamps then
            invalid_arg "Lattice: stamp dimension mismatch";
          if v.(i) <> k + 1 then
            invalid_arg
              (Printf.sprintf
                 "Lattice: own component of event %d of process %d must be %d"
                 (k + 1) i (k + 1)))
        evs)
    stamps

let is_consistent (stamps : stamps) (cut : Cut.t) =
  let n = Array.length stamps in
  let rec proc i =
    i >= n
    ||
    let ok =
      cut.(i) = 0
      ||
      let v = stamps.(i).(cut.(i) - 1) in
      let rec comp j = j >= n || ((j = i || v.(j) <= cut.(j)) && comp (j + 1)) in
      comp 0
    in
    ok && proc (i + 1)
  in
  proc 0

let count_consistent ?cap stamps =
  validate stamps;
  Packed.count (Packed.plan_of_stamps stamps) ?cap ()

let consistent_cuts ?cap stamps =
  validate stamps;
  Packed.cuts (Packed.plan_of_stamps stamps) ?cap ()

(* Total cuts in the full (unconstrained) lattice: Π (len_i + 1). *)
let total_cuts_of_lens = Packed.box_size
let total_cuts stamps = total_cuts_of_lens (lens stamps)

(* Whether the consistent cuts form a single chain — the Δ = 0 linear
   order of §4.2.4. *)
let is_chain ?cap stamps =
  validate stamps;
  Packed.is_chain (Packed.plan_of_stamps stamps) ?cap ()

(* --- stamp-plane executions: handles into a live arena, no copies --- *)

module Stamp_plane = Psn_clocks.Stamp_plane

let validate_plane plane (handles : Stamp_plane.handle array array) =
  let n = Array.length handles in
  if Stamp_plane.width plane <> n then
    invalid_arg "Lattice: plane width must equal the process count";
  Array.iteri
    (fun i hs ->
      Array.iteri
        (fun k h ->
          if not (Stamp_plane.is_valid plane h) then
            invalid_arg "Lattice: dead or foreign stamp handle";
          if Stamp_plane.get plane h i <> k + 1 then
            invalid_arg
              (Printf.sprintf
                 "Lattice: own component of event %d of process %d must be %d"
                 (k + 1) i (k + 1)))
        hs)
    handles

(* Materialize the copied-stamp form (Graphviz rendering, and the
   bridge between the two input representations in tests). *)
let stamps_of_plane plane (handles : Stamp_plane.handle array array) : stamps =
  Array.map (Array.map (Stamp_plane.read plane)) handles

let count_consistent_plane ?cap plane handles =
  validate_plane plane handles;
  Packed.count (Packed.plan_of_plane plane ~handles) ?cap ()

let is_chain_plane ?cap plane handles =
  validate_plane plane handles;
  Packed.is_chain (Packed.plan_of_plane plane ~handles) ?cap ()

let verdict_count = function Exact n -> n | At_least n -> n

let pp_verdict ppf = function
  | Exact n -> Fmt.pf ppf "%d" n
  | At_least n -> Fmt.pf ppf ">=%d" n

(* Graphviz rendering of the consistent sublattice (small executions only:
   caps at [dot_max_nodes] cuts).  Each node is a cut; edges are
   single-event extensions. *)
let dot_max_nodes = 500

let to_dot stamps =
  validate stamps;
  let cuts, _ = consistent_cuts ~cap:dot_max_nodes stamps in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph lattice {\n  rankdir=BT;\n";
  let name c =
    "\"" ^ String.concat "," (List.map string_of_int (Array.to_list c)) ^ "\""
  in
  (* Membership test for edge targets: hash the enumerated cuts once
     instead of a linear scan per candidate successor. *)
  let members = Hashtbl.create (2 * List.length cuts) in
  List.iter (fun c -> Hashtbl.replace members c ()) cuts;
  List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "  %s;\n" (name c))) cuts;
  let l = lens stamps in
  List.iter
    (fun c ->
      List.iter
        (fun (_, succ) ->
          if is_consistent stamps succ && Hashtbl.mem members succ then
            Buffer.add_string buf
              (Printf.sprintf "  %s -> %s;\n" (name c) (name succ)))
        (Cut.successors ~lens:l c))
    cuts;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
