(* Monomorphic event queue: a 4-ary min-heap purpose-built for the
   discrete-event engine.

   A generic binary heap (the reference the tests check this queue
   against) pays for its polymorphism on every operation: an indirect
   call through a comparator closure per comparison, boxed elements
   carrying their own key fields, and a [Some]/[None] allocation per
   pop.  Here the key is the pair
   (time in ns, insertion sequence) held in two flat immediate-[int]
   planes parallel to the payloads, so a comparison is two inlined
   integer compares with no memory indirection beyond the key planes
   themselves.  Pops are split into [is_empty]/[min_time_ns]/[pop_exn]
   so the drain loop never allocates an option.

   Payloads are not stored in heap order.  A third int plane, [slots],
   maps heap position to a stable index in the [payloads] arena, and the
   sifts permute (time, seq, slot) triples — all immediates, so
   reheapification never touches the payload array and never pays the GC
   write barrier ([caml_modify] was ~20% of a drain-loop profile with
   payloads sifted directly).  The only payload writes are one store on
   [add] and one [dummy] store on [pop_exn].  [slots] is kept a
   permutation of [0 .. capacity-1]: a pop swaps the freed arena index
   out to the heap position being vacated, so the slot for the next add
   is always found at [slots.(len)].

   The sequence plane is the FIFO tie-break: equal times pop in
   insertion order, which is what keeps simulations deterministic.
   [add_ranked] writes a key below every insertion sequence instead, so
   a ranked payload pops before every [add]ed one of equal time and
   equal-time ranked payloads pop by rank.  The payload slot vacated by
   a pop is overwritten with [dummy] so fired closures are not
   retained.

   Why 4-ary: sift-down dominates a DES queue (every pop sifts a tail
   element down from the root), and a 4-ary heap does ⌈log₄ n⌉ levels of
   4 key compares against ⌈log₂ n⌉ levels of 2 — the same compare count
   but half the dependent cache lines, and the 4 children of node i sit
   adjacent at indices 4i+1..4i+4 in the same plane.  Keys being bare
   ints, the extra compares per level are branch-predictable ALU work,
   not pointer chasing. *)

type 'a t = {
  mutable times : int array;    (* key plane: event time, ns *)
  mutable seqs : int array;     (* key plane: insertion sequence (FIFO ties) *)
  mutable slots : int array;    (* heap position -> arena index *)
  mutable payloads : 'a array;  (* arena, addressed through [slots] *)
  mutable len : int;
  mutable next_seq : int;
  dummy : 'a;                   (* fills vacated payload slots *)
}

let identity_from arr lo =
  for i = lo to Array.length arr - 1 do
    Array.unsafe_set arr i i
  done

(* The queue grows by doubling from here. *)
let initial_capacity = 16

let create ~dummy () =
  let capacity = initial_capacity in
  let slots = Array.make capacity 0 in
  identity_from slots 0;
  {
    times = Array.make capacity 0;
    seqs = Array.make capacity 0;
    slots;
    payloads = Array.make capacity dummy;
    len = 0;
    next_seq = 0;
    dummy;
  }

let length q = q.len
let is_empty q = q.len = 0

let grow q =
  let cap = Array.length q.times in
  let cap' = 2 * cap in
  let times = Array.make cap' 0 in
  let seqs = Array.make cap' 0 in
  let slots = Array.make cap' 0 in
  let payloads = Array.make cap' q.dummy in
  Array.blit q.times 0 times 0 q.len;
  Array.blit q.seqs 0 seqs 0 q.len;
  (* The old [slots] is a permutation of the old capacity range, so the
     whole array is copied (freed arena indices parked beyond [len] must
     survive); positions cap..cap'-1 get the identity mapping. *)
  Array.blit q.slots 0 slots 0 cap;
  identity_from slots cap;
  Array.blit q.payloads 0 payloads 0 cap;
  q.times <- times;
  q.seqs <- seqs;
  q.slots <- slots;
  q.payloads <- payloads

(* Hole-based sifts: the moving (time, seq, slot) triple rides in locals
   while parent or min-child triples shift into the hole — one store per
   plane per level, all immediates.  Indices are in-bounds by the heap
   invariants, so the accessors are unsafe — this is the innermost loop
   of every simulation.  [i - 1 >= 0] throughout, so parent is [lsr 2]. *)

let sift_up q i0 =
  let times = q.times and seqs = q.seqs and slots = q.slots in
  let t = Array.unsafe_get times i0 and s = Array.unsafe_get seqs i0 in
  let sl = Array.unsafe_get slots i0 in
  let i = ref i0 in
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let tp = Array.unsafe_get times parent in
    if t < tp || (t = tp && s < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i tp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else stop := true
  done;
  if !i <> i0 then begin
    Array.unsafe_set times !i t;
    Array.unsafe_set seqs !i s;
    Array.unsafe_set slots !i sl
  end

let sift_down q i0 =
  let len = q.len in
  let times = q.times and seqs = q.seqs and slots = q.slots in
  let t = Array.unsafe_get times i0 and s = Array.unsafe_get seqs i0 in
  let sl = Array.unsafe_get slots i0 in
  let i = ref i0 in
  let stop = ref false in
  while not !stop do
    let first = (!i lsl 2) + 1 in
    if first >= len then stop := true
    else begin
      let last = first + 3 in
      let last = if last < len then last else len - 1 in
      (* Min child's key is cached in locals so each candidate costs one
         or two loads, not a re-read per comparison. *)
      let m = ref first in
      let mt = ref (Array.unsafe_get times first) in
      let ms = ref (Array.unsafe_get seqs first) in
      for c = first + 1 to last do
        let tc = Array.unsafe_get times c in
        if tc < !mt || (tc = !mt && Array.unsafe_get seqs c < !ms) then begin
          m := c;
          mt := tc;
          ms := Array.unsafe_get seqs c
        end
      done;
      if !mt < t || (!mt = t && !ms < s) then begin
        Array.unsafe_set times !i !mt;
        Array.unsafe_set seqs !i !ms;
        Array.unsafe_set slots !i (Array.unsafe_get slots !m);
        i := !m
      end
      else stop := true
    end
  done;
  if !i <> i0 then begin
    Array.unsafe_set times !i t;
    Array.unsafe_set seqs !i s;
    Array.unsafe_set slots !i sl
  end

let[@inline] insert q ~time_ns ~seq payload =
  if q.len = Array.length q.times then grow q;
  let i = q.len in
  (* [slots.(i)] already names a free arena index (permutation
     invariant). *)
  let sl = Array.unsafe_get q.slots i in
  Array.unsafe_set q.times i time_ns;
  Array.unsafe_set q.seqs i seq;
  Array.unsafe_set q.payloads sl payload;
  q.len <- i + 1;
  sift_up q i

let add q ~time_ns payload =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  insert q ~time_ns ~seq payload

(* Insertion sequences count up from 0, so [min_int + rank] sorts below
   every one of them. *)
let add_ranked q ~time_ns ~rank payload =
  if rank < 0 then invalid_arg "Event_queue.add_ranked: negative rank";
  insert q ~time_ns ~seq:(min_int + rank) payload

let min_time_ns q =
  if q.len = 0 then invalid_arg "Event_queue.min_time_ns: empty";
  Array.unsafe_get q.times 0

let pop_exn q =
  if q.len = 0 then invalid_arg "Event_queue.pop_exn: empty";
  let sl = Array.unsafe_get q.slots 0 in
  let top = Array.unsafe_get q.payloads sl in
  Array.unsafe_set q.payloads sl q.dummy;
  let n = q.len - 1 in
  q.len <- n;
  if n > 0 then begin
    Array.unsafe_set q.times 0 (Array.unsafe_get q.times n);
    Array.unsafe_set q.seqs 0 (Array.unsafe_get q.seqs n);
    Array.unsafe_set q.slots 0 (Array.unsafe_get q.slots n);
    (* Park the freed arena index at the vacated heap position, keeping
       [slots] a permutation. *)
    Array.unsafe_set q.slots n sl
  end;
  if n > 1 then sift_down q 0;
  top
