(* Order statistics over benchmark samples.  Medians and percentiles
   reuse the experiment harness's linear-interpolation helpers; the
   quartiles follow Python's [statistics.quantiles(xs, n=4)] (its
   default exclusive method), so the spread printed here is the spread
   a Python reader of the JSON would compute. *)

let median = Psn_util.Stats.median
let percentile = Psn_util.Stats.percentile

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let quartiles xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Summary.quartiles: needs two samples";
  let s = sorted xs in
  let m = n + 1 in
  let q i =
    let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

type t = {
  n : int;
  median : float;
  min : float;
  max : float;
  q1 : float;
  q3 : float;
}

let of_samples xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.of_samples: no samples";
  let s = sorted xs in
  let q1, q3 =
    if n < 2 then (s.(0), s.(0))
    else
      let q1, _, q3 = quartiles s in
      (q1, q3)
  in
  { n; median = median s; min = s.(0); max = s.(n - 1); q1; q3 }

let iqr t = t.q3 -. t.q1

(* The benchmark's spread: IQR as a share of the median. *)
let spread t = if t.median = 0.0 then 0.0 else iqr t /. Float.abs t.median
