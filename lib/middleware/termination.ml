(* Safra's ring-token termination detection.

   Appendix A lists termination detection among the classic middleware
   applications of logical time.  Safra's algorithm detects when a
   diffusing computation has globally terminated — every process passive
   and no application message in flight — using a colored token carrying
   a message-count sum around a ring:

   - each process keeps a counter (sends − receives) and a color; a
     receive blackens the process;
   - a passive process forwards the token, adding its counter, blackening
     the token if itself black, then whitening itself;
   - the initiator (0) announces termination when a white token returns
     with total sum zero while it is itself white and passive; otherwise
     it starts a new round.

   Application work is a message that reactivates its receiver: the
   worker callback runs (possibly sending more work) and the process
   falls passive again afterwards — the classic diffusing-computation
   shape. *)

module Engine = Psn_sim.Engine
module Net = Psn_network.Net

type color = White | Black

type msg =
  | Work
  | Token of { sum : int; color : color }

(* Token content held while its holder is still active. *)
type held = { h_sum : int; h_color : color }

type node = {
  mutable active : bool;
  mutable counter : int;   (* sends − receives *)
  mutable color : color;
  mutable has_token : held option;
}

type t = {
  n : int;
  net : msg Net.t;
  nodes : node array;
  worker : (int -> unit) array;  (* per-process work handler *)
  mutable announced : bool;
  mutable rounds : int;
  on_terminate : unit -> unit;
}

let forward_token t i tok =
  let node = t.nodes.(i) in
  node.has_token <- None;
  let sum = tok.h_sum + node.counter in
  let color =
    match (tok.h_color, node.color) with White, White -> White | _ -> Black
  in
  node.color <- White;
  if i = 0 then begin
    (* Round completed back at the initiator; [color] and [sum] already
       fold in the initiator's own color and counter. *)
    if color = White && sum = 0 && not node.active then begin
      if not t.announced then begin
        t.announced <- true;
        t.on_terminate ()
      end
    end
    else begin
      t.rounds <- t.rounds + 1;
      (* Start a fresh white round. *)
      Net.send t.net ~src:0 ~dst:(t.n - 1) (Token { sum = 0; color = White })
    end
  end
  else Net.send t.net ~src:i ~dst:(i - 1) (Token { sum; color })

let maybe_forward t i =
  let node = t.nodes.(i) in
  match node.has_token with
  | Some tok when not node.active -> forward_token t i tok
  | _ -> ()

let handle t ~dst ~src:_ msg =
  let node = t.nodes.(dst) in
  match msg with
  | Work ->
      node.counter <- node.counter - 1;
      node.color <- Black;
      node.active <- true;
      t.worker.(dst) dst;
      node.active <- false;
      maybe_forward t dst
  | Token { sum; color } ->
      node.has_token <- Some { h_sum = sum; h_color = color };
      maybe_forward t dst

let create engine ~n ~delay ~on_terminate =
  if n < 2 then invalid_arg "Termination.create: need at least two processes";
  let net = Net.create ~payload_words:(fun _ -> 2) ~label:"termination" engine ~n ~delay in
  let t =
    {
      n;
      net;
      nodes =
        Array.init n (fun _ ->
            { active = false; counter = 0; color = White; has_token = None });
      worker = Array.make n (fun _ -> ());
      announced = false;
      rounds = 0;
      on_terminate;
    }
  in
  for dst = 0 to n - 1 do
    Net.set_handler net dst (fun ~src msg -> handle t ~dst ~src msg)
  done;
  t

let set_worker t i f =
  if i < 0 || i >= t.n then invalid_arg "Termination.set_worker: out of range";
  t.worker.(i) <- f

(* Send application work; only valid from within a worker (or at start). *)
let send_work t ~src ~dst =
  t.nodes.(src).counter <- t.nodes.(src).counter + 1;
  Net.send t.net ~src ~dst Work

(* Kick off: run the initiators' workers, then launch the first token. *)
let start t ~initial =
  List.iter
    (fun i ->
      if i < 0 || i >= t.n then invalid_arg "Termination.start: out of range";
      let node = t.nodes.(i) in
      node.active <- true;
      t.worker.(i) i;
      node.active <- false)
    initial;
  Net.send t.net ~src:0 ~dst:(t.n - 1) (Token { sum = 0; color = White })

let announced t = t.announced
let rounds t = t.rounds
let in_flight t = Array.fold_left (fun acc n -> acc + n.counter) 0 t.nodes
let all_passive t = Array.for_all (fun n -> not n.active) t.nodes
