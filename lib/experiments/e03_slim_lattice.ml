(* E3 — The slim lattice postulate (paper §4.2.4).

   Claim: clock strobes thin the lattice of consistent global states.
   Without communication every one of the O(p^n) cuts is consistent; the
   faster the strobes propagate (smaller Δ), the leaner the sublattice;
   at Δ = 0 it collapses to a single chain of n·p + 1 states.

   Setup: n processes sense Poisson events and run the strobe vector
   protocol; the endpoint stamps feed the lattice counter. *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Net = Psn_network.Net
module Strobe_vector = Psn_clocks.Strobe_vector
module Stamp_plane = Psn_clocks.Stamp_plane
open Exp_common

(* Run the strobe vector protocol over a Poisson sense workload; returns
   the stamp plane and per-process handle sequences for the lattice
   machinery — strobes travel as immediate-int handles and the lattice
   consumes the arena directly, so no stamp is ever copied.  [delta =
   None] means no strobes at all (the paper's "network plane cannot
   capture the dependencies" worst case). *)
let strobe_run ~seed ~n ~events_per_proc ~rate ~delta () =
  let engine = Engine.create ~seed () in
  let rng = Engine.scenario_rng engine in
  let plane = Stamp_plane.create ~n () in
  let clocks = Array.init n (fun me -> Strobe_vector.create ~n ~me) in
  let stamps = Array.init n (fun _ -> ref []) in
  let net =
    match delta with
    | None -> None
    | Some d -> Some (Net.create engine ~n ~delay:(delay_of_delta d))
  in
  (match net with
  | Some net ->
      for dst = 0 to n - 1 do
        Net.set_handler net dst (fun ~src:_ h ->
            Strobe_vector.receive_strobe_from plane clocks.(dst) h)
      done
  | None -> ());
  for i = 0 to n - 1 do
    let count = ref 0 in
    let rec next () =
      if !count < events_per_proc then begin
        let gap = Psn_util.Rng.exponential rng ~mean:(1.0 /. rate) in
        Engine.schedule_after_unit engine (Sim_time.of_sec_float gap) (fun () ->
               incr count;
               let h = Strobe_vector.tick_and_strobe_into plane clocks.(i) in
               stamps.(i) := h :: !(stamps.(i));
               (match net with
               | Some net -> Net.broadcast net ~src:i h
               | None -> ());
               next ())
      end
    in
    next ()
  done;
  Engine.run engine;
  (plane, Array.map (fun l -> Array.of_list (List.rev !l)) stamps)

let run ?(quick = false) () =
  let n = 3 and events_per_proc = if quick then 5 else 7 in
  let rate = 0.5 (* events per second per process *) in
  let cases =
    [
      ("delta=0 (sync)", Some Sim_time.zero);
      ("delta=10ms", Some (Sim_time.of_ms 10));
      ("delta=100ms", Some (Sim_time.of_ms 100));
      ("delta=1s", Some (Sim_time.of_sec 1));
      ("delta=10s", Some (Sim_time.of_sec 10));
      ("no strobes", None);
    ]
  in
  let rows =
    List.map
      (fun (label, delta) ->
        phase (Printf.sprintf "e3.%s" label) @@ fun () ->
        let plane, handles =
          strobe_run ~seed:17L ~n ~events_per_proc ~rate ~delta ()
        in
        let consistent =
          Psn_lattice.Lattice.count_consistent_plane plane handles
        in
        let total =
          Psn_lattice.Lattice.verdict_count
            (Psn_lattice.Lattice.total_cuts_of_lens
               (Array.map Array.length handles))
        in
        let chain = Psn_lattice.Lattice.is_chain_plane plane handles in
        let count = Psn_lattice.Lattice.verdict_count consistent in
        [
          label;
          string_of_int count;
          string_of_int total;
          f3 (float_of_int count /. float_of_int total);
          (if chain then "yes" else "no");
        ])
      cases
  in
  {
    id = "E3";
    title = "slim lattice postulate (consistent-state count vs strobe delta)";
    claim =
      "S4.2.4: strobes eliminate inconsistent interleavings; delta=0 yields \
       a linear order of n*p+1 states; without strobes all O(p^n) cuts are \
       consistent";
    headers = [ "strobing"; "consistent"; "all cuts"; "ratio"; "chain?" ];
    rows;
    notes =
      (Printf.sprintf
         "With %d processes x %d events, 'no strobes' must show %d = (p+1)^n \
          consistent cuts and delta=0 must show the minimal chain of %d; the \
          count should grow monotonically with delta."
         n events_per_proc
         ((events_per_proc + 1) * (events_per_proc + 1) * (events_per_proc + 1))
         ((n * events_per_proc) + 1));
  }
