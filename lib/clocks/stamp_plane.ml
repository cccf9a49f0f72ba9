(* Stamp plane: a per-run bump-allocated arena for vector stamps.

   Every clock rule used to materialize a fresh [int array] per event
   (VC1–VC3, SVC1, the matrix rules), so the measured cost of the
   protocols was dominated by GC pressure, not by the merges the paper
   counts.  The plane stores all stamps of one run in a single flat
   [int array]; a stamp is an immediate-int *handle* — its offset into
   the backing array — so piggybacking a stamp on a message, storing it
   in a detector log, or comparing two stamps never boxes anything.

   Representation:
     - a plane has a fixed [width] (components per stamp, the process
       count n);
     - handle h names components [data.(h - base) .. data.(h - base +
       width - 1)]; handles are always multiples of [width], and [base]
       is 0 until the plane first releases;
     - [alloc] bumps [len]; when the backing array is full it grows by
       doubling and blits, so existing handles stay valid (they are
       offsets, not pointers);
     - [release] raises the release floor: handles below it are dead,
       and [index] rejects them.  A full plane whose released rows fill
       at least half the backing slides its live rows down to index 0
       and moves [base] up to the floor instead of doubling; a growth
       copies only the live rows.  Handles stay global offsets, so a
       handle riding a message names the same stamp across either.  A
       plane that never releases has [base] = [floor] = 0 and grows
       exactly as it did without the floor;
     - [reset] recycles the whole arena for a new run: O(1), but it
       invalidates every outstanding handle (aliasing rule: a handle is
       dead after [reset] of its plane; validity checks catch handles
       past the live length, not stale handles below it).

   All comparison loops are monomorphic int loops over the flat plane
   ([Array.unsafe_get] after one bounds check per handle) — no closure,
   no polymorphic compare, no per-call allocation. *)

type t = {
  width : int;
  mutable data : int array;
  mutable base : int;   (* handle stored at [data.(0)] *)
  mutable floor : int;  (* handles below it are released *)
  mutable len : int;    (* end of the last stamp, as a handle; a multiple
                           of [width] *)
}

type handle = int

let create ?(initial = 64) ~n () =
  if n <= 0 then invalid_arg "Stamp_plane.create: n must be positive";
  if initial <= 0 then invalid_arg "Stamp_plane.create: initial must be positive";
  { width = n; data = Array.make (initial * n) 0; base = 0; floor = 0; len = 0 }

let width t = t.width
let count t = t.len / t.width
let live t = (t.len - t.floor) / t.width
let floor t = t.floor
let capacity t = Array.length t.data / t.width

let reset t =
  t.base <- 0;
  t.floor <- 0;
  t.len <- 0

let release t ~below =
  if below mod t.width <> 0 || below > t.len then
    invalid_arg "Stamp_plane.release: not a handle of this plane";
  if below > t.floor then t.floor <- below

(* Bounds check for a handle: one compare pair per operation (no [mod]
   — that would be an integer division on every hot-path call), after
   which the component loops may use unsafe accesses at the returned
   index into [data]. *)
let[@inline] index t h =
  if h < t.floor || h + t.width > t.len then
    invalid_arg "Stamp_plane: dead or foreign handle";
  h - t.base

(* The full alignment check, for validation layers (the lattice planner). *)
let is_valid t h = h >= t.floor && h mod t.width = 0 && h + t.width <= t.len

(* Room for one more stamp.  A plane at least half released slides its
   live rows down in place; otherwise the backing doubles until the
   live rows and one more stamp fit, and the copy moves only the live
   rows.  With nothing released ([floor] = [base] = 0) this is the
   plain doubling growth. *)
let make_room t =
  let cap = Array.length t.data in
  let dead = t.floor - t.base and live = t.len - t.floor in
  if dead > 0 && 2 * dead >= cap then
    Array.blit t.data dead t.data 0 live
  else begin
    let need = live + t.width in
    let cap = ref cap in
    while !cap < need do
      cap := !cap * 2
    done;
    let a = Array.make !cap 0 in
    Array.blit t.data dead a 0 live;
    t.data <- a
  end;
  t.base <- t.floor

(* Contents of the new stamp are unspecified (the arena recycles space
   after [reset] and a slide); every caller below overwrites all
   [width] components. *)
let alloc t =
  let h = t.len in
  let need = h + t.width in
  if need - t.base > Array.length t.data then make_room t;
  t.len <- need;
  h

let get t h j =
  let i = index t h in
  if j < 0 || j >= t.width then invalid_arg "Stamp_plane.get: component";
  Array.unsafe_get t.data (i + j)

let set t h j v =
  let i = index t h in
  if j < 0 || j >= t.width then invalid_arg "Stamp_plane.set: component";
  Array.unsafe_set t.data (i + j) v

(* Copy [w] ints between a small array and the plane.  [Array.blit] is
   a C call ([caml_array_blit]); its fixed call-and-check overhead is
   ~4x the whole copy at stamp widths (the PR-6 bench showed
   [receive_into(n=16)] at ~2x [receive_copy] for exactly this reason),
   so small widths take a monomorphic unsafe loop and only wide planes
   — where memmove's bulk speed wins back the call — go through blit. *)
let blit_threshold = 64

let[@inline] copy_ints (src : int array) sofs (dst : int array) dofs w =
  if w <= blit_threshold then
    for j = 0 to w - 1 do
      Array.unsafe_set dst (dofs + j) (Array.unsafe_get src (sofs + j))
    done
  else Array.blit src sofs dst dofs w

let of_array t (src : int array) =
  if Array.length src <> t.width then
    invalid_arg "Stamp_plane.of_array: width mismatch";
  let h = alloc t in
  copy_ints src 0 t.data (h - t.base) t.width;
  h

let read t h =
  let i = index t h in
  Array.sub t.data i t.width

let blit_to t h dst ~pos =
  let i = index t h in
  if pos < 0 || pos > Array.length dst - t.width then
    invalid_arg "Stamp_plane.blit_to: destination too short";
  copy_ints t.data i dst pos t.width

(* Componentwise max of stamp [h] into [dst] — the merge half of VC3 /
   SVC2 writing straight into a live clock vector. *)
let max_into_array t h (dst : int array) =
  let i = index t h in
  if Array.length dst <> t.width then
    invalid_arg "Stamp_plane.max_into_array: width mismatch";
  let d = t.data in
  for j = 0 to t.width - 1 do
    let x = Array.unsafe_get d (i + j) in
    if x > Array.unsafe_get dst j then Array.unsafe_set dst j x
  done

(* The whole of VC3 in one plane pass: merge stamp [h] into the live
   vector [vec] (componentwise max), tick component [me], and snapshot
   the result into a fresh stamp.  Fusing the merge and the snapshot
   walks (and paying one handle check instead of two) is what brings
   [Vector_clock.receive_into] below the legacy copy path.  [h] is
   checked before [alloc] so a dead handle still fails loudly; it stays
   valid across a growing [alloc] because handles are offsets, and its
   index is taken after [alloc], which may move the rows. *)
let receive_snapshot t h (vec : int array) ~me =
  ignore (index t h : int);
  if Array.length vec <> t.width then
    invalid_arg "Stamp_plane.receive_snapshot: width mismatch";
  if me < 0 || me >= t.width then
    invalid_arg "Stamp_plane.receive_snapshot: me out of range";
  let out = alloc t in
  let d = t.data in  (* re-read: [alloc] may have grown the backing *)
  let i = h - t.base and o = out - t.base in
  for j = 0 to t.width - 1 do
    let x = Array.unsafe_get d (i + j) and y = Array.unsafe_get vec j in
    let m = if x >= y then x else y in
    Array.unsafe_set vec j m;
    Array.unsafe_set d (o + j) m
  done;
  let m = Array.unsafe_get vec me + 1 in
  Array.unsafe_set vec me m;
  Array.unsafe_set d (o + me) m;
  out

(* --- handle-level stamp order (mirrors Vector_clock on arrays) --- *)

let leq t a b =
  let a = index t a and b = index t b in
  let d = t.data and w = t.width in
  let rec go j =
    j >= w
    || (Array.unsafe_get d (a + j) <= Array.unsafe_get d (b + j) && go (j + 1))
  in
  go 0

let equal t a b =
  a = b
  ||
  let a = index t a and b = index t b in
  let d = t.data and w = t.width in
  let rec go j =
    j >= w || (Array.unsafe_get d (a + j) = Array.unsafe_get d (b + j) && go (j + 1))
  in
  go 0

let happened_before t a b = leq t a b && not (equal t a b)

(* Fused two-way scan: stop as soon as both directions are refuted. *)
let concurrent t a b =
  let a = index t a and b = index t b in
  let d = t.data and w = t.width in
  let ab = ref true and ba = ref true in
  let j = ref 0 in
  while (!ab || !ba) && !j < w do
    let x = Array.unsafe_get d (a + !j) and y = Array.unsafe_get d (b + !j) in
    if x > y then ab := false else if y > x then ba := false;
    incr j
  done;
  (not !ab) && not !ba

(* First differing component decides — the same order [Stdlib.compare]
   induces on equal-length int arrays, without the polymorphic C call. *)
let compare_lex t a b =
  let a = index t a and b = index t b in
  let d = t.data and w = t.width in
  let rec go j =
    if j >= w then 0
    else
      let x = Array.unsafe_get d (a + j) and y = Array.unsafe_get d (b + j) in
      if x < y then -1 else if x > y then 1 else go (j + 1)
  in
  go 0

let compare_partial t a b =
  if equal t a b then Some 0
  else if leq t a b then Some (-1)
  else if leq t b a then Some 1
  else None

let total t h =
  let i = index t h in
  let d = t.data and w = t.width in
  let acc = ref 0 in
  for j = 0 to w - 1 do
    acc := !acc + Array.unsafe_get d (i + j)
  done;
  !acc

(* New stamp = componentwise max.  [alloc] may grow (and replace) the
   backing array or slide its rows, so it runs before [d] and the
   indices are read. *)
let merge t a b =
  ignore (index t a : int);
  ignore (index t b : int);
  let h = alloc t in
  let d = t.data and w = t.width in
  let a = a - t.base and b = b - t.base and o = h - t.base in
  for j = 0 to w - 1 do
    let x = Array.unsafe_get d (a + j) and y = Array.unsafe_get d (b + j) in
    Array.unsafe_set d (o + j) (if x >= y then x else y)
  done;
  h

let backing t =
  if t.floor > 0 then invalid_arg "Stamp_plane.backing: the plane has released";
  t.data
