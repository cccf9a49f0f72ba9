(* Packed-cut lattice engine: the one post-hoc walk of the consistent-cut
   lattice, for every execution size.

   A cut travels as a frontier entry of [n + 1] ints: its code followed
   by its components (carried along so no decoding is needed on the hot
   path).  The code of cut c is Σᵢ c.(i) · mixᵢ (mod 2⁶²), so advancing
   process i is [code + mixᵢ] — O(1), no allocation:

     - while the full lattice size Π (lenᵢ + 1) fits in an int, mixᵢ is
       the mixed-radix stride Π_{i' < i} (len_{i'} + 1) and codes are
       exact: equal codes mean equal cuts;
     - past that, mixᵢ is a fixed odd multiplier per process, the code is
       a hash, and equal codes are confirmed by comparing components.

   The per-event vector stamps are flattened into one contiguous int
   plane so the consistency check walks cache-local memory instead of
   chasing [array array array] pointers.

   One level-synchronous driver ([walk]) serves every query: it visits
   the frontier (level L), then expands it into level L + 1.  Every
   level-(L+1) cut extends a level-L cut by one event, so duplicates only
   ever meet inside the level being built, and the dedup is a per-level
   map ([Level_map]) from code to entry offset, emptied per level.  A
   level stops growing once it holds the cap's remaining budget, so a
   capped walk never builds more than [cap] cuts.

   Successors are generated per entry in process order and deduplicated
   at first generation, so each level comes out in the order a FIFO walk
   over array cuts visits it; the reference walk in test/test_lattice.ml
   pins counts, verdicts, cut sequences and cap behaviour against it. *)

type stamps = int array array array

type verdict = Exact of int | At_least of int

let default_cap = 2_000_000

type plan = {
  n : int;  (* processes *)
  lens : int array;  (* events per process *)
  exact : bool;  (* codes are mixed-radix numbers, not hashes *)
  mix : int array;  (* code increment when process i advances *)
  top_code : int;  (* code of the cut including every event *)
  plane : int array;  (* stamp storage: component j of event (i,k) at
                         row_off.(ev_base.(i) + k) + j *)
  ev_base : int array;  (* event-index base of process i *)
  row_off : int array;  (* flat offset of each event's stamp in [plane]:
                           densely packed rows for copied stamps, or the
                           stamp handles of a live [Stamp_plane] — one
                           load replaces the row multiply either way *)
}

(* Π (lensᵢ + 1) while it fits in an int. *)
let box_size lens =
  Array.fold_left
    (fun acc len ->
      match acc with
      | Exact total when total <= max_int / (len + 1) -> Exact (total * (len + 1))
      | _ -> At_least max_int)
    (Exact 1) lens

(* --- growable flat int buffer (frontiers) --- *)

module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create cap = { a = Array.make (max cap 16) 0; len = 0 }
  let clear t = t.len <- 0

  let ensure t extra =
    let need = t.len + extra in
    if need > Array.length t.a then begin
      let cap = ref (Array.length t.a) in
      while !cap < need do
        cap := !cap * 2
      done;
      let a = Array.make !cap 0 in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end
end

(* --- per-level dedup map: cut code -> entry offset --- *)

module Level_map = struct
  (* A fixed odd multiplier per process for hashed codes (a splitmix-style
     finalizer of the process index). *)
  let hash_mix i =
    let z = (i + 1) * 0x1E3779B97F4A7C15 in
    let z = (z lxor (z lsr 31)) * 0x2545F4914F6CDD1D in
    (z lxor (z lsr 29)) land max_int lor 1

  (* Open addressing over interleaved slots: [slots.(2s)] holds a code
     and [slots.(2s + 1)] its entry offset, negative when the slot is
     empty — so codes may take any value, and a probe touches one cache
     line. *)
  type t = { mutable slots : int array; mutable size : int }

  let create () = { slots = Array.make 32 (-1); size = 0 }

  let[@inline] start code mask = ((code * 0x2545F4914F6CDD1D) lsr 17) land mask

  (* Four slots per expected entry: a level is usually about as wide as
     the one it grows from, and [find_or_add] grows the table past half
     load anyway.  A table far larger than the hint is reallocated so
     that emptying it stays proportional to the walk's current width. *)
  let reset t ~hint =
    let want = ref 16 in
    while !want < 4 * hint do
      want := 2 * !want
    done;
    let cap = Array.length t.slots / 2 in
    if cap < !want || cap > 4 * !want then t.slots <- Array.make (2 * !want) (-1)
    else Array.fill t.slots 0 (2 * cap) (-1);
    t.size <- 0

  let grow t =
    let old = t.slots in
    let cap = Array.length old in
    let mask = cap - 1 in
    let slots = Array.make (2 * cap) (-1) in
    for s = 0 to (cap / 2) - 1 do
      let off = old.((2 * s) + 1) in
      if off >= 0 then begin
        let code = old.(2 * s) in
        let i = ref (start code mask) in
        while slots.((2 * !i) + 1) >= 0 do
          i := (!i + 1) land mask
        done;
        slots.(2 * !i) <- code;
        slots.((2 * !i) + 1) <- off
      end
    done;
    t.slots <- slots

  (* Whether the entry at [off] of [buf] holds the parent entry at [o] of
     [src] advanced by one event of process [i]. *)
  let[@inline] is_successor (buf : int array) off (src : int array) o i n =
    let j = ref 0 in
    while
      !j < n
      && Array.unsafe_get buf (off + 1 + !j)
         = Array.unsafe_get src (o + 1 + !j) + if !j = i then 1 else 0
    do
      incr j
    done;
    !j = n

  let find_or_add t ~exact ~n (buf : int array) q (src : int array) o i code =
    if 4 * (t.size + 1) > Array.length t.slots then grow t;
    let slots = t.slots in
    let mask = (Array.length slots / 2) - 1 in
    let s = ref (2 * start code mask) in
    let res = ref (-2) in
    while !res = -2 do
      let off = Array.unsafe_get slots (!s + 1) in
      if off < 0 then begin
        Array.unsafe_set slots !s code;
        Array.unsafe_set slots (!s + 1) q;
        t.size <- t.size + 1;
        res := -1
      end
      else if
        Array.unsafe_get slots !s = code && (exact || is_successor buf off src o i n)
      then res := off
      else s := (!s + 2) land ((2 * mask) + 1)
    done;
    !res
end

(* --- plans --- *)

let make_plan ~lens ~plane ~row_off =
  let n = Array.length lens in
  let exact, mix =
    match box_size lens with
    | Exact _ ->
        let stride = Array.make n 1 in
        for i = 1 to n - 1 do
          stride.(i) <- stride.(i - 1) * (lens.(i - 1) + 1)
        done;
        (true, stride)
    | At_least _ -> (false, Array.init n Level_map.hash_mix)
  in
  let top_code = ref 0 in
  Array.iteri (fun i len -> top_code := (!top_code + (len * mix.(i))) land max_int) lens;
  let ev_base = Array.make n 0 in
  for i = 1 to n - 1 do
    ev_base.(i) <- ev_base.(i - 1) + lens.(i - 1)
  done;
  { n; lens; exact; mix; top_code = !top_code; plane; ev_base; row_off }

let plan_of_stamps (stamps : stamps) : plan =
  let n = Array.length stamps in
  let events = Array.fold_left (fun acc evs -> acc + Array.length evs) 0 stamps in
  let plane = Array.make (events * n) 0 in
  let row_off = Array.make events 0 in
  let e = ref 0 in
  Array.iter
    (Array.iter (fun v ->
         let off = !e * n in
         row_off.(!e) <- off;
         Array.blit v 0 plane off n;
         incr e))
    stamps;
  make_plan ~lens:(Array.map Array.length stamps) ~plane ~row_off

(* Consume a live [Stamp_plane] directly: [handles.(i).(k)] is the stamp
   of process i's (k+1)-th event, and the plan's [plane] is the arena's
   backing array — no copy.  The backing reference is captured now; a
   later growing [alloc] replaces the arena's array, but growth blits,
   so reads of the already-allocated rows named here stay correct.
   [reset] of the arena, however, invalidates the plan with its
   handles.  Assumes the caller validated the handles
   ([Lattice.validate_plane]). *)
let plan_of_plane (sp : Psn_clocks.Stamp_plane.t)
    ~(handles : Psn_clocks.Stamp_plane.handle array array) : plan =
  make_plan
    ~lens:(Array.map Array.length handles)
    ~plane:(Psn_clocks.Stamp_plane.backing sp)
    ~row_off:(Array.concat (Array.to_list handles))

(* --- frontier expansion --- *)

(* Consistency of the single-event extension of the entry at [o] by
   process [i] whose next event index is [ci]: the new event's stamp
   must lie componentwise inside the extended cut (own component
   excepted).  Intrinsic to the extended cut: any consistent parent
   gives the same answer. *)
let[@inline] extension_ok plan (src : int array) o i ci =
  let n = plan.n in
  let off = Array.unsafe_get plan.row_off (Array.unsafe_get plan.ev_base i + ci) in
  let plane = plan.plane in
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < n do
    if
      !j <> i
      && Array.unsafe_get plane (off + !j) > Array.unsafe_get src (o + 1 + !j)
    then ok := false;
    incr j
  done;
  !ok

(* Squeeze out the entries [expand] dropped (code slot -1). *)
let compact (nx : Ibuf.t) esz =
  let b = nx.Ibuf.a in
  let w = ref 0 in
  let r = ref 0 in
  while !r < nx.Ibuf.len do
    if b.(!r) >= 0 then begin
      if !w < !r then Array.blit b !r b !w esz;
      w := !w + esz
    end;
    r := !r + esz
  done;
  nx.Ibuf.len <- !w

(* Build level L + 1 ([nx]) from level L ([f]): consistent successors,
   each once, in (entry, process) order, at most [budget] of them.  The
   consistency check comes first, so the level and its map hold
   consistent cuts only.  A successor [keep] rejects stays in the map,
   so its other parents skip it without asking [keep] again, and is
   squeezed out once the level is complete. *)
let expand plan map ~keep ~budget (f : Ibuf.t) (nx : Ibuf.t) =
  let n = plan.n in
  let esz = n + 1 in
  let lens = plan.lens and mix = plan.mix in
  Ibuf.clear nx;
  Level_map.reset map ~hint:(f.Ibuf.len / esz);
  let live = ref 0 in
  let dropped = ref false in
  let src = f.Ibuf.a in
  let o = ref 0 in
  while !o < f.Ibuf.len && !live < budget do
    let code = Array.unsafe_get src !o in
    let i = ref 0 in
    while !i < n && !live < budget do
      let ci = Array.unsafe_get src (!o + 1 + !i) in
      if ci < Array.unsafe_get lens !i && extension_ok plan src !o !i ci then begin
        let code' = (code + Array.unsafe_get mix !i) land max_int in
        let q = nx.Ibuf.len in
        if Level_map.find_or_add map ~exact:plan.exact ~n nx.Ibuf.a q src !o !i code' < 0
        then begin
          Ibuf.ensure nx esz;
          let b = nx.Ibuf.a in
          Array.unsafe_set b q code';
          for j = 1 to n do
            Array.unsafe_set b (q + j) (Array.unsafe_get src (!o + j))
          done;
          Array.unsafe_set b (q + 1 + !i) (ci + 1);
          nx.Ibuf.len <- q + esz;
          if keep b q then incr live
          else begin
            Array.unsafe_set b q (-1);
            dropped := true
          end
        end
      end;
      incr i
    done;
    o := !o + esz
  done;
  if !dropped then compact nx esz

(* Observability hook: called once per expanded BFS level with the
   frontier's entry count.  Domain-local, so a probe sees only the walks
   of the domain that installed it; [None] costs one branch per level,
   nothing per entry. *)
let frontier_probe : (int -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_frontier_probe probe f =
  let saved = Domain.DLS.get frontier_probe in
  Domain.DLS.set frontier_probe (Some probe);
  Fun.protect ~finally:(fun () -> Domain.DLS.set frontier_probe saved) f

(* --- the walk driver --- *)

(* Visit every cut [keep] admits, level by level: [visit buf off] sees
   the entry at [off] of [buf] (code, then components).  Cuts [keep]
   rejects are neither visited nor expanded.  The verdict is [At_least
   cap] as soon as the cap-th cut is visited, even if nothing was left
   to expand. *)
let walk plan ?(cap = default_cap) ?(keep = fun _ _ -> true) visit =
  let esz = plan.n + 1 in
  let cur = ref (Ibuf.create 64) and nxt = ref (Ibuf.create 64) in
  let map = Level_map.create () in
  (* ⊥: code 0, every component 0 *)
  Ibuf.ensure !cur esz;
  Array.fill !cur.Ibuf.a 0 esz 0;
  if keep !cur.Ibuf.a 0 then !cur.Ibuf.len <- esz;
  let count = ref 0 in
  let capped = ref false in
  let probe = Domain.DLS.get frontier_probe in
  while !cur.Ibuf.len > 0 && not !capped do
    let f = !cur in
    let o = ref 0 in
    while (not !capped) && !o < f.Ibuf.len do
      visit f.Ibuf.a !o;
      incr count;
      if !count >= cap then capped := true;
      o := !o + esz
    done;
    if not !capped then begin
      (match probe with Some p -> p (f.Ibuf.len / esz) | None -> ());
      expand plan map ~keep ~budget:(cap - !count) f !nxt;
      cur := !nxt;
      nxt := f
    end
  done;
  if !capped then At_least !count else Exact !count

let count plan ?cap () = walk plan ?cap (fun _ _ -> ())

(* Enumerate in visit order; each cut is a fresh array (the public
   [Lattice.consistent_cuts] contract). *)
let cuts plan ?cap () =
  let n = plan.n in
  let acc = ref [] in
  let verdict = walk plan ?cap (fun buf o -> acc := Array.sub buf (o + 1) n :: !acc) in
  (List.rev !acc, verdict)

exception Early of bool

(* The consistent cuts form a chain iff every BFS level holds exactly
   one cut, i.e. iff the k-th visited cut has level k: levels are
   visited in order and none is skipped, so the first mismatch is a
   second cut on one level — an incomparable pair.  A capped walk is
   [false]. *)
let is_chain plan ?cap () =
  let n = plan.n in
  let visited = ref 0 in
  match
    walk plan ?cap (fun buf o ->
        let level = ref 0 in
        for j = 1 to n do
          level := !level + Array.unsafe_get buf (o + j)
        done;
        if !level <> !visited then raise_notrace (Early false);
        incr visited)
  with
  | Exact _ -> true
  | At_least _ -> false
  | exception Early chain -> chain

(* --- modalities (Cooper–Marzullo over the packed walk) --- *)

(* Possibly(φ): stop at the first φ-cut.  The scratch cut handed to
   [holds] is reused between calls. *)
let possibly plan ?cap ~holds () : bool option =
  let n = plan.n in
  let scratch = Array.make n 0 in
  match
    walk plan ?cap (fun buf o ->
        Array.blit buf (o + 1) scratch 0 n;
        if holds scratch then raise_notrace (Early true))
  with
  | Exact _ -> Some false
  | At_least _ -> None
  | exception Early found -> Some found

let is_top plan (buf : int array) o =
  buf.(o) = plan.top_code
  && (plan.exact
     ||
     let j = ref 0 in
     while !j < plan.n && buf.(o + 1 + !j) = plan.lens.(!j) do
       incr j
     done;
     !j = plan.n)

(* Definitely(φ): walk only ¬φ-cuts; Definitely fails iff ⊤ is reachable
   from ⊥ through ¬φ-cuts only (including the degenerate ⊥ = ⊤ case).
   φ-cuts are dropped as they are generated, so the walk dies out once
   every path is blocked, and reaching ⊤ stops it at once. *)
let definitely plan ?cap ~holds () : bool option =
  let n = plan.n in
  let scratch = Array.make n 0 in
  let keep buf o =
    Array.blit buf (o + 1) scratch 0 n;
    not (holds scratch)
  in
  match
    walk plan ?cap ~keep (fun buf o ->
        if is_top plan buf o then raise_notrace (Early false))
  with
  | Exact _ -> Some true
  | At_least _ -> None
  | exception Early definite -> Some definite
