(* A sensor/actuator process p ∈ P (paper §2.1–2.2).

   Deliberately thin: a process is an id, a local event log, and local
   variables.  Clock state lives with the protocol that owns it (detectors,
   sync protocols), because the paper's whole point is that the same
   process execution can be timestamped under different time models. *)

module Engine = Psn_sim.Engine
module Vec = Psn_util.Vec
module Value = Psn_world.Value

type t = {
  id : int;
  engine : Engine.t;
  log : Exec_event.t Vec.t;
  vars : (string, Value.t) Hashtbl.t;
  mutable next_index : int;
}

let dummy_event =
  Exec_event.make ~proc:(-1) ~index:(-1) ~time:Psn_sim.Sim_time.zero
    ~kind:Exec_event.Compute ()

let create engine ~id =
  if id < 0 then invalid_arg "Process.create: negative id";
  {
    id;
    engine;
    log = Vec.create ~dummy:dummy_event ();
    vars = Hashtbl.create 8;
    next_index = 0;
  }

let id t = t.id

(* Record an event in the local sequence; returns it for convenience. *)
let log_event ?vstamp ?sstamp t kind =
  let ev =
    Exec_event.make ~proc:t.id ~index:t.next_index ~time:(Engine.now t.engine)
      ~kind ?vstamp ?sstamp ()
  in
  t.next_index <- t.next_index + 1;
  Vec.push t.log ev;
  ev

let events t = Vec.to_list t.log
let event_count t = Vec.length t.log
let nth_event t i = Vec.get t.log i

let set_var t name v = Hashtbl.replace t.vars name v
let get_var t name = Hashtbl.find_opt t.vars name

let get_var_exn t name =
  match get_var t name with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "process %d has no variable %S" t.id name)

let vars t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.vars []
