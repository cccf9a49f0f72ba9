(* Exact Cooper–Marzullo modalities over the consistent-cut lattice.

   This is the "second use of the partial order" the paper discusses in
   §4.1: reasoning about all global states an execution could have passed
   through.  Given per-event stamps and a predicate on cuts:

     Possibly(φ)    ⟺  some consistent cut satisfies φ
     Definitely(φ)  ⟺  every maximal chain from ⊥ to ⊤ meets a φ-cut
                    ⟺  ⊤ is unreachable from ⊥ through ¬φ-cuts only

   Exponential in the worst case (it IS the lattice), so both return
   [None] when the exploration cap is hit.  Both run fused into the
   packed walk: early exit at the first φ-cut / the first ⊤ escape.  NB
   the packed engine hands [holds] a scratch cut reused between calls —
   predicates must not retain it.  The online detectors in lib/detection
   approximate these semantics with queues; the test suite
   cross-validates them against this oracle on small executions. *)

type verdict = bool option  (* None = exploration capped *)

let possibly ?cap (stamps : Lattice.stamps) ~holds : verdict =
  Packed.possibly (Packed.plan_of_stamps stamps) ?cap ~holds ()

let definitely ?cap (stamps : Lattice.stamps) ~holds : verdict =
  Packed.definitely (Packed.plan_of_stamps stamps) ?cap ~holds ()

(* Convenience: evaluate a predicate over located variables at a cut,
   given each process's update sequence (variable name, value).  Each
   process's per-prefix table of latest values is built once, when
   [~init ~updates] are applied: [latest.(loc)] maps a variable name to
   the array whose entry k is the latest write to it among loc's first k
   updates. *)
let cut_env ~init ~(updates : (string * Psn_world.Value.t) array array) :
    Cut.t -> Psn_predicates.Expr.var -> Psn_world.Value.t option =
  let latest =
    Array.map
      (fun writes ->
        let len = Array.length writes in
        (* name -> prefix table, and how far it is final *)
        let tbl = Hashtbl.create 8 in
        (* entries upto+1 .. k repeat entry upto *)
        let settle (prefix, upto) k =
          Array.fill prefix (!upto + 1) (k - !upto) prefix.(!upto);
          upto := k
        in
        Array.iteri
          (fun k (name, value) ->
            let ((prefix, upto) as entry) =
              match Hashtbl.find_opt tbl name with
              | Some entry -> entry
              | None ->
                  let entry = (Array.make (len + 1) None, ref 0) in
                  Hashtbl.add tbl name entry;
                  entry
            in
            settle entry k;
            prefix.(k + 1) <- Some value;
            upto := k + 1)
          writes;
        Hashtbl.iter (fun _ entry -> settle entry len) tbl;
        tbl)
      updates
  in
  fun cut v ->
    let loc = v.Psn_predicates.Expr.loc in
    if loc < 0 || loc >= Array.length latest then None
    else
      match Hashtbl.find_opt latest.(loc) v.Psn_predicates.Expr.name with
      | Some (prefix, _) when Option.is_some prefix.(cut.(loc)) -> prefix.(cut.(loc))
      | _ -> List.assoc_opt v init

let holds_of_expr ~init ~updates =
  let env = cut_env ~init ~updates in
  fun predicate cut -> Psn_predicates.Expr.holds ~env:(env cut) predicate
