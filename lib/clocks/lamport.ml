(* Lamport logical scalar clock (paper §4.2.2, rules SC1–SC3).

   SC1: on a relevant internal/sense event, C := C + 1.
   SC2: on a send event, C := C + 1 and the message carries C.
   SC3: on receive of timestamp T, C := max(C, T); C := C + 1. *)

type t = {
  me : int;
  mutable c : int;
}

type stamp = int

let create ~me =
  if me < 0 then invalid_arg "Lamport.create: negative process id";
  { me; c = 0 }

let me t = t.me
let read t = t.c

(* SC1 *)
let tick t =
  t.c <- t.c + 1;
  t.c

(* SC2 *)
let send t =
  t.c <- t.c + 1;
  t.c

(* SC3 *)
let receive t stamp =
  t.c <- max t.c stamp;
  t.c <- t.c + 1;
  t.c

(* Total order on (stamp, process id) pairs: Lamport's tie-break gives the
   single time axis ("interleaving") order the paper calls the linear order
   time model. *)
let compare_total (s1, p1) (s2, p2) =
  let c = Stdlib.compare s1 s2 in
  if c <> 0 then c else Stdlib.compare p1 p2
