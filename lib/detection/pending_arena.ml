(* Grow-by-doubling hold-back buffer for checker deliveries.

   The PR 7 checker kept pending updates in a list and, per flush,
   [List.partition]ed on the receive time, [List.sort]ed the ready part
   and [Array.of_list]ed it — an allocation per delivery plus O(pending)
   churn per flush.  This arena stores each pending update as seven
   flat int lanes, partitions in place (survivors compact to the front),
   and orders the ready batch with an in-place heapsort over the
   substrate-invariant (stamp, src, seq) key — no allocation on either
   path once the backing arrays have grown to the high-water mark.

   Key uniqueness: (src, seq) alone is unique per update, so the
   non-stable heapsort yields the same sequence as the oracle's stable
   sort — the total order never consults arrival order, which is the
   one thing a shard count may perturb among equal-time deliveries.

   Single-writer: one checker (one engine event at a time) owns an
   arena. *)

let stride = 7

(* Lane offsets within an entry. *)
let o_recv = 0
let o_stamp = 1
let o_src = 2
let o_seq = 3
let o_var = 4
let o_value = 5
let o_sense = 6

type t = {
  mutable buf : int array;   (* pending entries, stride lanes each *)
  mutable len : int;         (* in ints *)
  mutable batch : int array; (* ready entries, sorted, valid until next flush *)
  mutable batch_len : int;   (* in ints *)
}

let create () =
  { buf = [||]; len = 0; batch = [||]; batch_len = 0 }

let pending t = t.len / stride

(* Entries are added in receive order and [take_ready] compacts the
   survivors without reordering them, so entry 0 is the oldest. *)
let head_recv t =
  if t.len = 0 then invalid_arg "Pending_arena.head_recv: empty";
  t.buf.(o_recv)

let ensure arr need =
  if need <= Array.length arr then arr
  else begin
    let cap = ref (max (stride * 16) (Array.length arr)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Array.make !cap 0 in
    Array.blit arr 0 nb 0 (Array.length arr);
    nb
  end

let add t ~recv ~stamp ~src ~seq ~var_idx ~value ~sense =
  t.buf <- ensure t.buf (t.len + stride);
  let b = t.buf and o = t.len in
  b.(o + o_recv) <- recv;
  b.(o + o_stamp) <- stamp;
  b.(o + o_src) <- src;
  b.(o + o_seq) <- seq;
  b.(o + o_var) <- var_idx;
  b.(o + o_value) <- value;
  b.(o + o_sense) <- sense;
  t.len <- o + stride

(* (stamp, src, seq) comparison between entries of [b] at int offsets
   [i] and [j].  Int-annotated: the polymorphic compare the list-based
   checker used on these fields costs a caml_compare call per pair. *)
let entry_less (b : int array) i j =
  let sa = b.(i + o_stamp) and sb = b.(j + o_stamp) in
  if sa <> sb then sa < sb
  else
    let pa = b.(i + o_src) and pb = b.(j + o_src) in
    if pa <> pb then pa < pb else b.(i + o_seq) < b.(j + o_seq)

let swap_entry (b : int array) i j =
  for k = 0 to stride - 1 do
    let tmp = b.(i + k) in
    b.(i + k) <- b.(j + k);
    b.(j + k) <- tmp
  done

(* In-place heapsort over stride-sized entries: deterministic, O(1)
   space, O(m log m); stability is irrelevant because keys are unique. *)
let sort_batch t =
  let b = t.batch in
  let m = t.batch_len / stride in
  let sift root count =
    let root = ref root in
    let continue = ref true in
    while !continue do
      let child = (2 * !root) + 1 in
      if child >= count then continue := false
      else begin
        let child =
          if child + 1 < count
             && entry_less b (child * stride) ((child + 1) * stride)
          then child + 1
          else child
        in
        if entry_less b (!root * stride) (child * stride) then begin
          swap_entry b (!root * stride) (child * stride);
          root := child
        end
        else continue := false
      end
    done
  in
  for i = (m / 2) - 1 downto 0 do
    sift i m
  done;
  for last = m - 1 downto 1 do
    swap_entry b 0 (last * stride);
    sift 0 last
  done

(* Move every entry with recv <= cutoff into the (sorted) batch and
   compact the survivors; returns the batch size in entries. *)
let take_ready t ~cutoff =
  t.batch_len <- 0;
  let b = t.buf in
  let w = ref 0 in
  let o = ref 0 in
  while !o < t.len do
    if b.(!o + o_recv) <= cutoff then begin
      t.batch <- ensure t.batch (t.batch_len + stride);
      Array.blit b !o t.batch t.batch_len stride;
      t.batch_len <- t.batch_len + stride
    end
    else begin
      if !w <> !o then Array.blit b !o b !w stride;
      w := !w + stride
    end;
    o := !o + stride
  done;
  t.len <- !w;
  sort_batch t;
  t.batch_len / stride

(* Batch accessors; [i] is an entry index from the last [take_ready]. *)
let stamp t i = t.batch.((i * stride) + o_stamp)
let src t i = t.batch.((i * stride) + o_src)
let seq t i = t.batch.((i * stride) + o_seq)
let var_idx t i = t.batch.((i * stride) + o_var)
let value t i = t.batch.((i * stride) + o_value)
let sense t i = t.batch.((i * stride) + o_sense)
