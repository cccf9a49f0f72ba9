(* Strobe vector clock (paper §4.2.1, rules SVC1–SVC2).

   SVC1: when process i executes (senses) a relevant event:
           C[i] := C[i] + 1; System-wide broadcast(C).
   SVC2: when process i receives a strobe T:
           C[k] := max(C[k], T[k]) for all k.

   Differences from Mattern/Fidge (paper §4.2.3): no tick on receive, all
   strobes are control messages, the broadcast happens at (no more often
   than) each relevant event, and the induced partial order is an artifact
   of run-time strobe arrivals, not of program semantics. *)

type t = {
  me : int;
  v : int array;
}

type stamp = int array

let create ~n ~me =
  if n <= 0 then invalid_arg "Strobe_vector.create: n must be positive";
  if me < 0 || me >= n then invalid_arg "Strobe_vector.create: me out of range";
  { me; v = Array.make n 0 }

let read t = Array.copy t.v

(* SVC1: tick own component; the returned snapshot must be broadcast. *)
let tick_and_strobe t =
  t.v.(t.me) <- t.v.(t.me) + 1;
  Array.copy t.v

(* SVC2: componentwise max; no local tick.  Direct int loop — the
   [Array.iteri] closure cost a minor allocation per strobe receive. *)
let receive_strobe t stamp =
  let n = Array.length t.v in
  if Array.length stamp <> n then
    invalid_arg "Strobe_vector.receive_strobe: dimension mismatch";
  let v = t.v in
  for k = 0 to n - 1 do
    let x = Array.unsafe_get stamp k in
    if x > Array.unsafe_get v k then Array.unsafe_set v k x
  done

let stamp_size_words n = n

(* --- stamp-plane fast path (SVC1/SVC2, allocation-free) --- *)

(* SVC1 into the plane; broadcast the returned handle. *)
let tick_and_strobe_into plane t =
  t.v.(t.me) <- t.v.(t.me) + 1;
  Stamp_plane.of_array plane t.v

(* SVC2 from a plane stamp: merge only, zero allocation. *)
let receive_strobe_from plane t h = Stamp_plane.max_into_array plane h t.v
