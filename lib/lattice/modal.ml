(* Exact Cooper–Marzullo modalities over the consistent-cut lattice.

   This is the "second use of the partial order" the paper discusses in
   §4.1: reasoning about all global states an execution could have passed
   through.  Given per-event stamps and a predicate on cuts:

     Possibly(φ)    ⟺  some consistent cut satisfies φ
     Definitely(φ)  ⟺  every maximal chain from ⊥ to ⊤ meets a φ-cut
                    ⟺  ⊤ is unreachable from ⊥ through ¬φ-cuts only

   Exponential in the worst case (it IS the lattice), so both return
   [None] when the exploration cap is hit.  The online detectors in
   lib/detection approximate these semantics with queues; the test suite
   cross-validates them against this oracle on small executions. *)

type verdict = bool option  (* None = exploration capped *)

let explore ?(cap = 2_000_000) (stamps : Lattice.stamps) ~admit visit =
  let l = Lattice.lens stamps in
  let n = Array.length stamps in
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let bottom = Cut.bottom n in
  let capped = ref false in
  let count = ref 0 in
  if admit bottom then begin
    Hashtbl.replace seen bottom ();
    Queue.add bottom queue
  end;
  while not (Queue.is_empty queue) do
    let cut = Queue.pop queue in
    incr count;
    visit cut;
    if !count >= cap then begin
      capped := true;
      Queue.clear queue
    end
    else
      for i = 0 to n - 1 do
        if cut.(i) < l.(i) && Lattice.extension_consistent stamps cut i then begin
          let c = Array.copy cut in
          c.(i) <- c.(i) + 1;
          if (not (Hashtbl.mem seen c)) && admit c then begin
            Hashtbl.replace seen c ();
            Queue.add c queue
          end
        end
      done
  done;
  !capped

(* Generic-engine modalities, kept as the differential-test oracle for
   the fused packed walks below. *)

let possibly_generic ?cap (stamps : Lattice.stamps) ~holds : verdict =
  let found = ref false in
  let capped =
    explore ?cap stamps ~admit:(fun _ -> not !found) (fun cut ->
        if holds cut then found := true)
  in
  if !found then Some true else if capped then None else Some false

let definitely_generic ?cap (stamps : Lattice.stamps) ~holds : verdict =
  (* Walk only ¬φ cuts; Definitely fails iff ⊤ is reachable that way
     (including the degenerate single-cut execution where ⊥ = ⊤). *)
  let l = Lattice.lens stamps in
  let top = Cut.top l in
  let escaped = ref false in
  let capped =
    explore ?cap stamps
      ~admit:(fun cut -> not (holds cut))
      (fun cut -> if Cut.equal cut top then escaped := true)
  in
  if !escaped then Some false else if capped then None else Some true

(* Public modalities: fused into the packed walk when the execution is
   packable (early exit at the first φ-cut / the first ⊤ escape), generic
   otherwise.  NB the packed engine hands [holds] a scratch cut reused
   between calls — predicates must not retain it. *)

let possibly ?cap ?(parallel = false) (stamps : Lattice.stamps) ~holds : verdict
    =
  match Packed.plan_of_stamps stamps with
  | Some plan -> Packed.possibly plan ?cap ~parallel ~holds ()
  | None -> possibly_generic ?cap stamps ~holds

let definitely ?cap ?(parallel = false) (stamps : Lattice.stamps) ~holds :
    verdict =
  match Packed.plan_of_stamps stamps with
  | Some plan -> Packed.definitely plan ?cap ~parallel ~holds ()
  | None -> definitely_generic ?cap stamps ~holds

(* Convenience: evaluate a predicate over located variables at a cut,
   given each process's update sequence (variable name, value). *)
let cut_env ~init ~(updates : (string * Psn_world.Value.t) array array)
    (cut : Cut.t) : Psn_predicates.Expr.var -> Psn_world.Value.t option =
  fun v ->
    let loc = v.Psn_predicates.Expr.loc in
    if loc < 0 || loc >= Array.length updates then None
    else begin
      (* Latest write to [v] among the first cut.(loc) updates of loc. *)
      let rec scan k best =
        if k >= cut.(loc) then best
        else
          let name, value = updates.(loc).(k) in
          scan (k + 1)
            (if String.equal name v.Psn_predicates.Expr.name then Some value
             else best)
      in
      match scan 0 None with
      | Some value -> Some value
      | None -> List.assoc_opt v init
    end

let holds_of_expr ~init ~updates predicate cut =
  Psn_predicates.Expr.holds ~env:(cut_env ~init ~updates cut) predicate
