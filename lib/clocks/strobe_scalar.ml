(* Strobe scalar clock (paper §4.2.2, rules SSC1–SSC2).

   SSC1: when process i executes (senses) a relevant event:
           C := C + 1; System-wide broadcast(C).
   SSC2: when process i receives a strobe T: C := max(C, T).

   Unlike the Lamport clock, the receiver does NOT tick on receipt: strobes
   are control messages that pull drifting scalars back "in sync" rather
   than track causality.  Strobe size is O(1) — the lightweight option. *)

type t = {
  me : int;
  mutable c : int;
}

type stamp = int

let create ~me =
  if me < 0 then invalid_arg "Strobe_scalar.create: negative process id";
  { me; c = 0 }

let me t = t.me
let read t = t.c

(* SSC1: tick and return the value the caller must broadcast system-wide. *)
let tick_and_strobe t =
  t.c <- t.c + 1;
  t.c

(* SSC2: catch up; no local tick. *)
let receive_strobe t stamp = t.c <- max t.c stamp

(* Wire size in abstract units; compared against the strobe vector's O(n)
   in experiment E5. *)
let stamp_size_words = 1
