(* Streaming and batch statistics used by the experiment harness.

   The running accumulator uses Welford's algorithm so variance stays
   numerically stable over long simulations. *)

type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable sum : float;
}

let create () =
  { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; sum = 0.0 }

let add t x =
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.count
let mean t = if t.count = 0 then nan else t.mean
let min_value t = if t.count = 0 then nan else t.min
let max_value t = if t.count = 0 then nan else t.max

let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)

let stddev t = sqrt (variance t)

let merge a b =
  if a.count = 0 then { b with count = b.count }
  else if b.count = 0 then { a with count = a.count }
  else begin
    let n = a.count + b.count in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.count /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.count *. float_of_int b.count /. float_of_int n)
    in
    { count = n; mean; m2; min = Float.min a.min b.min; max = Float.max a.max b.max;
      sum = a.sum +. b.sum }
  end

let of_array xs =
  let t = create () in
  Array.iter (add t) xs;
  t

(* Linear-interpolation percentile on a private sorted copy. *)
let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile xs 50.0

type histogram = {
  lo : float;
  hi : float;
  bins : int array;
  mutable underflow : int;
  mutable overflow : int;
}

let histogram_create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Stats.histogram_create: bins must be positive";
  if hi <= lo then invalid_arg "Stats.histogram_create: hi <= lo";
  { lo; hi; bins = Array.make bins 0; underflow = 0; overflow = 0 }

let histogram_add h x =
  if x < h.lo then h.underflow <- h.underflow + 1
  else if x >= h.hi then h.overflow <- h.overflow + 1
  else begin
    let n = Array.length h.bins in
    let i = int_of_float (float_of_int n *. (x -. h.lo) /. (h.hi -. h.lo)) in
    let i = Stdlib.min i (n - 1) in
    h.bins.(i) <- h.bins.(i) + 1
  end

let histogram_bins h = Array.copy h.bins
let histogram_underflow h = h.underflow
let histogram_overflow h = h.overflow

let histogram_total h =
  Array.fold_left ( + ) (h.underflow + h.overflow) h.bins
