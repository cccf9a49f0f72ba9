(* Fixed-capacity bitset backed by an int array.

   Used by the lattice machinery to key visited consistent cuts compactly
   and to track covered processes in the detection algorithms. *)

let bits_per_word = Sys.int_size

type t = {
  capacity : int;
  words : int array;
}

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity; words = Array.make ((capacity + bits_per_word - 1) / bits_per_word) 0 }

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let popcount_word w =
  let rec go w acc = if w = 0 then acc else go (w lsr 1) (acc + (w land 1)) in
  go w 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let union a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.union: capacity mismatch";
  { capacity = a.capacity; words = Array.mapi (fun i w -> w lor b.words.(i)) a.words }

let inter a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.inter: capacity mismatch";
  { capacity = a.capacity; words = Array.mapi (fun i w -> w land b.words.(i)) a.words }

let to_list t =
  let acc = ref [] in
  for i = t.capacity - 1 downto 0 do
    if mem t i then acc := i :: !acc
  done;
  !acc
