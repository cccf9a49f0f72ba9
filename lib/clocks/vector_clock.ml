(* Mattern/Fidge causality-based vector clock (paper §4.2.1, rules VC1–VC3).

   VC1: on a relevant internal/sense event, C[i] := C[i] + 1.
   VC2: on a send event, C[i] := C[i] + 1 and the message carries C.
   VC3: on receive of vector T, C[k] := max(C[k], T[k]) for all k, then
        C[i] := C[i] + 1.

   Stamps are immutable snapshots (fresh arrays), so they can be stored in
   event logs and compared later without aliasing the live clock. *)

type t = {
  me : int;
  v : int array;
}

type stamp = int array

let create ~n ~me =
  if n <= 0 then invalid_arg "Vector_clock.create: n must be positive";
  if me < 0 || me >= n then invalid_arg "Vector_clock.create: me out of range";
  { me; v = Array.make n 0 }

let size t = Array.length t.v
let read t = Array.copy t.v

(* VC1 *)
let tick t =
  t.v.(t.me) <- t.v.(t.me) + 1;
  Array.copy t.v

(* VC2 *)
let send t = tick t

(* VC3.  Direct int loop — [Array.iteri] would allocate a closure per
   receive even on this legacy copy-stamp path. *)
let receive t stamp =
  let n = Array.length t.v in
  if Array.length stamp <> n then
    invalid_arg "Vector_clock.receive: dimension mismatch";
  let v = t.v in
  for k = 0 to n - 1 do
    let x = Array.unsafe_get stamp k in
    if x > Array.unsafe_get v k then Array.unsafe_set v k x
  done;
  v.(t.me) <- v.(t.me) + 1;
  Array.copy v

(* Stamp-level operations. *)

let leq a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Vector_clock.leq: dimension mismatch";
  let rec go i = i >= n || (a.(i) <= b.(i) && go (i + 1)) in
  go 0

(* Monomorphic int loop — [=] on stamps would go through the polymorphic
   comparator on every happened-before test. *)
let equal (a : stamp) (b : stamp) =
  a == b
  ||
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let happened_before a b = leq a b && not (equal a b)

let concurrent a b = (not (leq a b)) && not (leq b a)

let merge a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Vector_clock.merge: dimension mismatch";
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    Array.unsafe_set out i (if x >= y then x else y)
  done;
  out

let compare_partial a b =
  if equal a b then Some 0
  else if leq a b then Some (-1)
  else if leq b a then Some 1
  else None

(* Sum of components: a scalar view used as a tie-breaking heuristic when a
   detector must linearize concurrent stamps. *)
let total a = Array.fold_left ( + ) 0 a

(* --- stamp-plane fast path: the same rules, allocation-free ---

   The plane variants implement VC1–VC3 writing straight into a
   [Stamp_plane] arena; a stamp is the immediate-int handle the plane
   returns.  [receive_from] is the checker-side half of VC3 (merge +
   tick, no snapshot) — the shape of every detector's [on_receive],
   which today materializes a stamp only to throw it away. *)

(* VC1/VC2 *)
let tick_into plane t =
  t.v.(t.me) <- t.v.(t.me) + 1;
  Stamp_plane.of_array plane t.v

let send_into = tick_into

(* VC3 without a snapshot: merge the plane stamp into the live vector,
   then tick.  Zero allocation. *)
let receive_from plane t h =
  Stamp_plane.max_into_array plane h t.v;
  (* [me < length v] by construction. *)
  Array.unsafe_set t.v t.me (Array.unsafe_get t.v t.me + 1)

(* VC3 with the post-receive snapshot written into the plane: one fused
   merge+tick+snapshot pass (see [Stamp_plane.receive_snapshot]). *)
let receive_into plane t h =
  Stamp_plane.receive_snapshot plane h t.v ~me:t.me
