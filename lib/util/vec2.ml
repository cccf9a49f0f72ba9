(* 2D points/vectors for object mobility and sensing range checks. *)

type t = { x : float; y : float }

let make x y = { x; y }
let zero = { x = 0.0; y = 0.0 }
let x t = t.x
let y t = t.y
let add a b = { x = a.x +. b.x; y = a.y +. b.y }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y }
let scale k a = { x = k *. a.x; y = k *. a.y }
let dot a b = (a.x *. b.x) +. (a.y *. b.y)
let norm2 a = dot a a
let norm a = sqrt (norm2 a)

let dist a b = norm (sub a b)
let dist2 a b = norm2 (sub a b)

let lerp a b t = add a (scale t (sub b a))

let normalize a =
  let n = norm a in
  if n = 0.0 then zero else scale (1.0 /. n) a

let equal a b = a.x = b.x && a.y = b.y
