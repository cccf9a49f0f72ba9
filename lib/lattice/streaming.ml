(* Streaming frontier lattice.

   The walk is the same level-synchronous BFS as [Packed], restarted
   nowhere: one frontier buffer holds the cuts of the highest finalized
   level, and advancing a level expands it in place into the spare
   buffer (the retired slab is reclaimed by an O(1) length reset at the
   swap).  What makes the online version sound is the commit rule:

     level L is finalized  iff  L <= min over open pids i of
                                  Σ_j (last stamp of i).(j)

   A cut containing event e dominates stamp(e) componentwise, so
   sum(cut) >= sum(stamp(e)); and a process's stamps have strictly
   increasing component sums (own tick plus monotone merges).  So a
   not-yet-observed event of pid i can only ever sit in cuts of level
   >= progress(i) + 1 — below that bound the frontier is exactly what
   the post-hoc walk over the finished prefix would build.  The
   differential tests in test/test_lattice.ml pin counts, verdicts, and
   φ-evaluation order against [Packed] on random prefixes.

   Memory, piece by piece:

     - frontier buffers: two [Ibuf]s, peak size = widest live slab
       (reported by [peak_live_cuts]);
     - event stamps: one [Stamp_plane] arena plus per-pid handle rings
       covering [base.(i) .. applied.(i) - 1], where [base] is the meet
       of the frontier (the minimum stable cut — no future consistency
       check can read below it, because extension candidates have
       components >= the frontier's componentwise min).  When the arena
       holds more than twice the live window it is reset (O(1)) and the
       live window re-allocated — amortized O(1) per event;
     - dedup map: [Packed]'s per-level map, emptied per expansion.

   Packed codes are relative to [base]: radix_i = applied_i - base_i + 1
   over the live window, strides recomputed per expansion (O(n)).  When
   the radix product overflows 62 bits the strides become [Packed]'s
   per-process hash multipliers and the map compares components on a
   code match — same frontiers, same order ([overflowed] records that
   this happened). *)

module Stamp_plane = Psn_clocks.Stamp_plane

type edge =
  | Possibly_holds of int
  | Definitely_holds of int
  | Possibly_fails
  | Definitely_fails

(* Frontier entry layout: [flags; comp_0 .. comp_{n-1}] — absolute
   counts.  flags bit 0 = on a live ¬φ path from ⊥ (the Definitely
   walk's R-set), bit 1 = φ holds at this cut. *)
let flag_nphi_path = 1
let flag_phi = 2

module Ibuf = Packed.Ibuf

type t = {
  n : int;
  holds : int array -> bool;
  on_edge : edge -> unit;
  cap : int;
  (* per-pid progress *)
  applied : int array;        (* events observed *)
  progress : int array;       (* Σ components of the last stamp *)
  closed : bool array;
  mutable open_pids : int;
  (* live stamp window *)
  plane : Stamp_plane.t;
  rings : int array array;    (* pid -> handle ring, index k mod cap *)
  base : int array;           (* minimum stable cut *)
  (* frontier *)
  mutable cur : Ibuf.t;       (* committed level [level] *)
  mutable nxt : Ibuf.t;
  mutable level : int;
  map : Packed.Level_map.t;   (* dedup of the level being built *)
  (* radix/stride scratch *)
  stride : int array;
  scratch : int array;        (* cut handed to [holds] *)
  (* results *)
  mutable committed : int;
  mutable possibly : bool option;
  mutable definitely : bool option;
  mutable capped : bool;
  mutable overflowed : bool;
  mutable top_nphi : bool;
      (* the last committed nonempty frontier was the top cut (all
         observed events) and it sat on a live ¬φ path — the only
         configuration that refutes Definitely at [finish] *)
  mutable events : int;
  mutable peak_live_cuts : int;
  mutable live_ev : int;
  mutable peak_live_ev : int;
}

let esz t = t.n + 1

(* --- stamp window --- *)

let ring_handle t pid k = t.rings.(pid).(k mod Array.length t.rings.(pid))

let ring_store t pid k h =
  let r = t.rings.(pid) in
  let cap = Array.length r in
  let live = t.applied.(pid) - t.base.(pid) in
  if live >= cap then begin
    (* grow: re-place live handles under the doubled modulus *)
    let ncap = 2 * cap in
    let nr = Array.make ncap (-1) in
    for j = t.base.(pid) to t.applied.(pid) - 1 do
      nr.(j mod ncap) <- r.(j mod cap)
    done;
    t.rings.(pid) <- nr;
    nr.(k mod ncap) <- h
  end
  else r.(k mod cap) <- h

(* Reclaim the arena once it holds more than twice the live window:
   copy the live handles' stamps out, reset (O(1)), re-allocate.  The
   copy is O(live window), so the amortized cost per observed event is
   O(1). *)
let compact t =
  let live = t.live_ev in
  if Stamp_plane.count t.plane > (2 * live) + 4 then begin
    let n = t.n in
    let buf = Array.make (max 1 (live * n)) 0 in
    let off = ref 0 in
    for pid = 0 to n - 1 do
      for k = t.base.(pid) to t.applied.(pid) - 1 do
        let h = ring_handle t pid k in
        for j = 0 to n - 1 do
          buf.((!off * n) + j) <- Stamp_plane.get t.plane h j
        done;
        incr off
      done
    done;
    Stamp_plane.reset t.plane;
    off := 0;
    for pid = 0 to n - 1 do
      for k = t.base.(pid) to t.applied.(pid) - 1 do
        let h = Stamp_plane.alloc t.plane in
        for j = 0 to n - 1 do
          Stamp_plane.set t.plane h j buf.((!off * n) + j)
        done;
        ring_store t pid k h;
        incr off
      done
    done
  end

(* --- expansion --- *)

(* Consistency of extending the cut at [src+o] by event (i, ci): the
   event's stamp must lie componentwise inside the extended cut (own
   component excepted) — [Packed.extension_ok] over the live plane. *)
let extension_ok t (src : int array) o i ci =
  let h = ring_handle t i ci in
  let plane = t.plane in
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < t.n do
    if !j <> i && Stamp_plane.get plane h !j > src.(o + 1 + !j) then ok := false;
    incr j
  done;
  !ok

(* Code of the entry at [src+o] relative to the current base, under
   the current strides; meaningful only within one expansion.  A
   successor by process i adds [stride.(i)]. *)
let code_of t (src : int array) o =
  let c = ref 0 in
  for j = 0 to t.n - 1 do
    c := !c + ((src.(o + 1 + j) - t.base.(j)) * t.stride.(j))
  done;
  !c land max_int

(* Recompute mixed-radix strides for the live window; once Π radices
   would exceed a tagged int, the strides become [Packed]'s hash
   multipliers for good. *)
let refresh_strides t =
  if not t.overflowed then begin
    let total = ref 1 in
    let j = ref 0 in
    while !j < t.n do
      t.stride.(!j) <- !total;
      let radix = t.applied.(!j) - t.base.(!j) + 2 in
      if !total > max_int / radix then begin
        t.overflowed <- true;
        for i = 0 to t.n - 1 do
          t.stride.(i) <- Packed.Level_map.hash_mix i
        done;
        j := t.n
      end
      else begin
        total := !total * radix;
        incr j
      end
    done
  end

let entry_count t (f : Ibuf.t) = f.Ibuf.len / esz t

(* Evaluate φ at the entry just appended at offset [q] of [nx], set its
   flag bits, and fold the verdict state. *)
let seal_entry t (nx : Ibuf.t) q ~parent_nphi =
  let n = t.n in
  Array.blit nx.Ibuf.a (q + 1) t.scratch 0 n;
  let phi = t.holds t.scratch in
  let f = ref 0 in
  if phi then f := !f lor flag_phi
  else if parent_nphi then f := !f lor flag_nphi_path;
  nx.Ibuf.a.(q) <- !f;
  t.committed <- t.committed + 1;
  if phi && t.possibly = None then begin
    t.possibly <- Some true;
    t.on_edge (Possibly_holds (t.level + 1))
  end

(* Advance the frontier one level: expand [cur] (level [level]) into
   [nxt] (level [level + 1]).  The caller has checked the commit rule
   admits level + 1. *)
let expand t =
  let n = t.n in
  let esz = esz t in
  refresh_strides t;
  let f = t.cur and nx = t.nxt in
  Ibuf.clear nx;
  Packed.Level_map.reset t.map ~hint:(entry_count t f);
  let o = ref 0 in
  while (not t.capped) && !o < f.Ibuf.len do
    let src = f.Ibuf.a in
    let parent_nphi = src.(!o) land flag_nphi_path <> 0 in
    let code = code_of t src !o in
    for i = 0 to n - 1 do
      let ci = src.(!o + 1 + i) in
      if ci < t.applied.(i) && extension_ok t src !o i ci then begin
        let q = nx.Ibuf.len in
        let hit =
          Packed.Level_map.find_or_add t.map ~exact:(not t.overflowed) ~n
            nx.Ibuf.a q src !o i
            ((code + t.stride.(i)) land max_int)
        in
        if hit < 0 then begin
          Ibuf.ensure nx esz;
          Array.blit src (!o + 1) nx.Ibuf.a (q + 1) n;
          nx.Ibuf.a.(q + 1 + i) <- ci + 1;
          nx.Ibuf.len <- q + esz;
          seal_entry t nx q ~parent_nphi
        end
        else if
          (* already generated this level: OR the ¬φ-path flag through
             this parent edge (the Definitely walk must see every
             parent, not just the first) *)
          parent_nphi
          && nx.Ibuf.a.(hit) land flag_phi = 0
        then nx.Ibuf.a.(hit) <- nx.Ibuf.a.(hit) lor flag_nphi_path;
        if entry_count t nx > t.cap then t.capped <- true
      end
    done;
    o := !o + esz
  done;
  if not t.capped then begin
    (* retire the slab: O(1) reset + swap *)
    Ibuf.clear f;
    t.cur <- nx;
    t.nxt <- f;
    let entries = entry_count t t.cur in
    if entries > 0 then t.level <- t.level + 1;
    if entries > t.peak_live_cuts then t.peak_live_cuts <- entries;
    (* A level-[events] cut contains every observed event, so it is the
       (current) top; record whether it survives on a ¬φ path.  Only
       nonempty commits update this, so after the final drain it still
       describes the last real frontier. *)
    if entries > 0 then
      t.top_nphi <-
        t.level = t.events
        && t.cur.Ibuf.a.(0) land flag_nphi_path <> 0;
    (* Definitely decided as soon as the R-set dies with cuts left *)
    if t.definitely = None && entries > 0 then begin
      let alive = ref false in
      let o = ref 0 in
      while (not !alive) && !o < t.cur.Ibuf.len do
        if t.cur.Ibuf.a.(!o) land flag_nphi_path <> 0 then alive := true;
        o := !o + esz
      done;
      if not !alive then begin
        t.definitely <- Some true;
        t.on_edge (Definitely_holds t.level)
      end
    end;
    (* advance the minimum stable cut and reclaim below it *)
    if entries > 0 then begin
      for j = 0 to n - 1 do
        t.scratch.(j) <- max_int
      done;
      let o = ref 0 in
      while !o < t.cur.Ibuf.len do
        for j = 0 to n - 1 do
          let c = t.cur.Ibuf.a.(!o + 1 + j) in
          if c < t.scratch.(j) then t.scratch.(j) <- c
        done;
        o := !o + esz
      done;
      for j = 0 to n - 1 do
        if t.scratch.(j) > t.base.(j) then t.base.(j) <- t.scratch.(j)
      done;
      t.live_ev <- 0;
      for j = 0 to n - 1 do
        t.live_ev <- t.live_ev + (t.applied.(j) - t.base.(j))
      done;
      compact t
    end
  end

(* The commit rule's bound: the lowest progress among still-open pids,
   or unbounded when every pid closed. *)
let bound t =
  if t.open_pids = 0 then max_int
  else begin
    let b = ref max_int in
    for i = 0 to t.n - 1 do
      if (not t.closed.(i)) && t.progress.(i) < !b then b := t.progress.(i)
    done;
    !b
  end

let advance t =
  let continue = ref true in
  while !continue do
    if
      t.capped
      || t.cur.Ibuf.len = 0
      || t.level + 1 > bound t
    then continue := false
    else expand t
  done

(* --- construction & feeding --- *)

let create ~n ?(cap = 1_000_000) ?(on_edge = fun _ -> ()) ~holds () =
  if n <= 0 then invalid_arg "Streaming.create: n must be positive";
  if cap <= 0 then invalid_arg "Streaming.create: cap must be positive";
  let t =
    {
      n;
      holds;
      on_edge;
      cap;
      applied = Array.make n 0;
      progress = Array.make n 0;
      closed = Array.make n false;
      open_pids = n;
      plane = Stamp_plane.create ~n ();
      rings = Array.init n (fun _ -> Array.make 8 (-1));
      base = Array.make n 0;
      cur = Ibuf.create 64;
      nxt = Ibuf.create 64;
      level = 0;
      map = Packed.Level_map.create ();
      stride = Array.make n 0;
      scratch = Array.make n 0;
      committed = 0;
      possibly = None;
      definitely = None;
      capped = false;
      overflowed = false;
      top_nphi = false;
      events = 0;
      peak_live_cuts = 1;
      live_ev = 0;
      peak_live_ev = 0;
    }
  in
  (* seed ⊥ as the level-0 frontier and commit it *)
  Ibuf.ensure t.cur (n + 1);
  Array.fill t.cur.Ibuf.a 0 (n + 1) 0;
  t.cur.Ibuf.len <- n + 1;
  Array.fill t.scratch 0 n 0;
  let phi = holds t.scratch in
  t.committed <- 1;
  if phi then begin
    t.cur.Ibuf.a.(0) <- flag_phi;
    t.possibly <- Some true;
    t.on_edge (Possibly_holds 0);
    t.definitely <- Some true;
    t.on_edge (Definitely_holds 0)
  end
  else begin
    t.cur.Ibuf.a.(0) <- flag_nphi_path;
    (* ⊥ is also the top of the empty execution *)
    t.top_nphi <- true
  end;
  t

let observe t ~pid ~stamp =
  if pid < 0 || pid >= t.n then invalid_arg "Streaming.observe: pid out of range";
  if t.closed.(pid) then invalid_arg "Streaming.observe: pid is closed";
  if Array.length stamp <> t.n then
    invalid_arg "Streaming.observe: stamp width mismatch";
  if stamp.(pid) <> t.applied.(pid) + 1 then
    invalid_arg "Streaming.observe: out-of-order event (own component)";
  let sum = ref 0 in
  for j = 0 to t.n - 1 do
    sum := !sum + stamp.(j)
  done;
  if !sum <= t.progress.(pid) then
    invalid_arg "Streaming.observe: stamp sum must increase";
  let h = Stamp_plane.of_array t.plane stamp in
  ring_store t pid t.applied.(pid) h;
  t.applied.(pid) <- t.applied.(pid) + 1;
  t.progress.(pid) <- !sum;
  t.events <- t.events + 1;
  t.live_ev <- t.live_ev + 1;
  if t.live_ev > t.peak_live_ev then t.peak_live_ev <- t.live_ev;
  advance t

let close_pid t ~pid =
  if pid < 0 || pid >= t.n then
    invalid_arg "Streaming.close_pid: pid out of range";
  if not t.closed.(pid) then begin
    t.closed.(pid) <- true;
    t.open_pids <- t.open_pids - 1;
    advance t
  end

let finish t =
  for pid = 0 to t.n - 1 do
    if not t.closed.(pid) then begin
      t.closed.(pid) <- true;
      t.open_pids <- t.open_pids - 1
    end
  done;
  advance t;
  if not t.capped then begin
    (* The walk drained: settle the remaining answers.  Possibly fails
       iff no committed cut satisfied φ.  Definitely fails iff the top
       cut was reached on a live ¬φ path ([top_nphi]); when the walk
       died before the top (a causally open prefix whose ⊤ is
       inconsistent), every observation path is blocked — Definitely
       holds, matching [Packed.definitely]'s dead-frontier answer. *)
    if t.possibly = None then begin
      t.possibly <- Some false;
      t.on_edge Possibly_fails
    end;
    if t.definitely = None then
      (* [top_nphi] may be stale when events arrived after the last
         nonempty commit (their cuts never became consistent): the
         frontier it describes is the true top only if its level still
         equals the final event count. *)
      if t.top_nphi && t.level = t.events then begin
        t.definitely <- Some false;
        t.on_edge Definitely_fails
      end
      else begin
        t.definitely <- Some true;
        t.on_edge (Definitely_holds t.level)
      end
  end

(* --- accessors --- *)

let n t = t.n
let events_observed t = t.events
let committed_level t = t.level

let committed_cuts t =
  if t.capped then Packed.At_least t.committed else Packed.Exact t.committed

let possibly t = t.possibly
let definitely t = t.definitely
let base t = Array.copy t.base

let base_component t i =
  if i < 0 || i >= t.n then invalid_arg "Streaming.base_component: pid";
  t.base.(i)

let live_cuts t = entry_count t t.cur
let peak_live_cuts t = t.peak_live_cuts
let live_events t = t.live_ev
let peak_live_events t = t.peak_live_ev
let overflowed t = t.overflowed
let capped t = t.capped
