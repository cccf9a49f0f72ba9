(* Matrix clock — an extension beyond the paper's protocols.

   M[i][j] at process k is k's knowledge of what process i knows about
   process j's local clock.  The row for [me] is the process's own vector
   clock; the min over column j of the diagonal knowledge gives a bound on
   information every process is guaranteed to have, which observers can
   use to garbage-collect buffered world-plane observations (Appendix A
   lists garbage collection among the classic vector-time uses). *)

type t = {
  me : int;
  m : int array array;
}

type stamp = int array array

let create ~n ~me =
  if n <= 0 then invalid_arg "Matrix_clock.create: n must be positive";
  if me < 0 || me >= n then invalid_arg "Matrix_clock.create: me out of range";
  { me; m = Array.init n (fun _ -> Array.make n 0) }

let size t = Array.length t.m

let copy_matrix m = Array.map Array.copy m

let read t = copy_matrix t.m

(* Own vector clock view: row [me]. *)
let vector t = Array.copy t.m.(t.me)

let tick t =
  t.m.(t.me).(t.me) <- t.m.(t.me).(t.me) + 1;
  copy_matrix t.m

let send t = tick t

let receive t ~from stamp =
  let n = Array.length t.m in
  if Array.length stamp <> n then invalid_arg "Matrix_clock.receive: dimension";
  (* Merge the sender's whole knowledge matrix. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if stamp.(i).(j) > t.m.(i).(j) then t.m.(i).(j) <- stamp.(i).(j)
    done
  done;
  (* Our row additionally absorbs the sender's row (we now know what the
     sender knew), and we record having seen the sender's latest event. *)
  for j = 0 to n - 1 do
    if stamp.(from).(j) > t.m.(t.me).(j) then t.m.(t.me).(j) <- stamp.(from).(j)
  done;
  t.m.(t.me).(t.me) <- t.m.(t.me).(t.me) + 1

(* --- row stamps ---

   [tick]/[send] copy the full n×n matrix even when the receiver merges
   it away immediately.  When only the sender's own vector view is
   needed (the common piggyback), an O(n) row stamp carries the same
   causal information: the receiver merges it into both the sender's
   row (what the sender knows) and its own row (we now know it too). *)

type row_stamp = int array

let tick_row t =
  let me_row = t.m.(t.me) in
  me_row.(t.me) <- me_row.(t.me) + 1;
  Array.copy me_row

let send_row = tick_row

let receive_row t ~from row =
  let n = Array.length t.m in
  if from < 0 || from >= n then invalid_arg "Matrix_clock.receive_row: from";
  if Array.length row <> n then invalid_arg "Matrix_clock.receive_row: dimension";
  let from_row = t.m.(from) and me_row = t.m.(t.me) in
  for j = 0 to n - 1 do
    let x = Array.unsafe_get row j in
    if x > Array.unsafe_get from_row j then Array.unsafe_set from_row j x;
    if x > Array.unsafe_get me_row j then Array.unsafe_set me_row j x
  done;
  me_row.(t.me) <- me_row.(t.me) + 1

(* --- stamp-plane fast path for row stamps --- *)

let tick_row_into plane t =
  let me_row = t.m.(t.me) in
  me_row.(t.me) <- me_row.(t.me) + 1;
  Stamp_plane.of_array plane me_row

let send_row_into = tick_row_into

let receive_row_from plane t ~from h =
  let n = Array.length t.m in
  if from < 0 || from >= n then invalid_arg "Matrix_clock.receive_row_from: from";
  if Stamp_plane.width plane <> n then
    invalid_arg "Matrix_clock.receive_row_from: width mismatch";
  Stamp_plane.max_into_array plane h t.m.(from);
  Stamp_plane.max_into_array plane h t.m.(t.me);
  t.m.(t.me).(t.me) <- t.m.(t.me).(t.me) + 1

(* Every process is known to have seen at least [min_known t j] events of
   process j; observations older than that can be discarded. *)
let min_known t j =
  let n = Array.length t.m in
  if j < 0 || j >= n then invalid_arg "Matrix_clock.min_known: out of range";
  let acc = ref max_int in
  for i = 0 to n - 1 do
    if t.m.(i).(j) < !acc then acc := t.m.(i).(j)
  done;
  !acc
