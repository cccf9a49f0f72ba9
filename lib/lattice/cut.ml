(* Global cuts of a finite execution.

   A cut is a vector c where c.(i) is the number of events of process i
   included.  Cuts under componentwise order form the lattice of global
   states (paper §4.1/§4.2.4); the consistent ones form its sublattice. *)

type t = int array

let bottom n = Array.make n 0

let top lens = Array.copy lens

(* Monomorphic: the polymorphic [=] walks the runtime representation
   through a C call per comparison; an int loop is branch-predictable
   and inlineable. *)
let equal (a : t) (b : t) =
  a == b
  ||
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let leq a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Cut.leq: dimension mismatch";
  let rec go i = i >= n || (a.(i) <= b.(i) && go (i + 1)) in
  go 0

let join a b =
  if Array.length a <> Array.length b then invalid_arg "Cut.join: dimension mismatch";
  Array.mapi (fun i x -> max x b.(i)) a

let meet a b =
  if Array.length a <> Array.length b then invalid_arg "Cut.meet: dimension mismatch";
  Array.mapi (fun i x -> min x b.(i)) a

(* Level of a cut in the lattice: total events included. *)
let level t = Array.fold_left ( + ) 0 t

(* Successors by including one more event, bounded by [lens]. *)
let successors ~lens t =
  let n = Array.length t in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if t.(i) < lens.(i) then begin
      let c = Array.copy t in
      c.(i) <- c.(i) + 1;
      acc := (i, c) :: !acc
    end
  done;
  !acc
