(* Deterministic fan-out over a persistent pool of OCaml 5 domains.

   Experiment sweeps run one independent, seeded simulation per parameter
   point; tasks never share mutable state, so results written at their
   input index are reproducible whatever the number of domains or the
   chunk interleaving.

   Workers are spawned lazily on the first parallel map and kept alive
   for the rest of the process: a sweep of many small maps pays the
   domain spawn cost once instead of per call.  Each map publishes a job
   — a closure pulling fixed-size chunks off a shared atomic index — and
   the submitting domain works alongside the pool until the index is
   exhausted.  The pool grows on demand when a call requests more
   domains than currently exist; it never shrinks. *)

(* [PSN_DOMAINS] pins the worker count from the outside — CI uses it to
   re-run the whole suite single-domain without touching test code.  It
   is read per call so a test harness can flip it. *)
let env_domains () =
  match Sys.getenv_opt "PSN_DOMAINS" with
  | None | Some "" -> None
  | Some s -> (match int_of_string_opt (String.trim s) with
               | Some d when d >= 1 -> Some d
               | Some _ | None -> None)

let default_domains () =
  match env_domains () with
  | Some d -> d
  | None -> max 1 (Domain.recommended_domain_count () - 1)

(* Per-domain single-domain switch: a domain that installed a default
   trace sink or timeline (both domain-local) keeps its maps at home, so
   no task runs where the default is not visible.  Runs stay
   deterministic either way (results come back in input order). *)
let sequential_only = Domain.DLS.new_key (fun () -> false)

let set_sequential b = Domain.DLS.set sequential_only b

let sequentially f =
  let saved = Domain.DLS.get sequential_only in
  Domain.DLS.set sequential_only true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set sequential_only saved) f

(* A nested map issued from inside a worker must not block waiting for
   the pool (the pool is busy running its caller): detect it through
   domain-local state and fall back to a plain sequential map. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

type pool = {
  mutex : Mutex.t;
  work_ready : Condition.t;  (* a new job generation was published *)
  work_done : Condition.t;   (* a worker finished its share of the job *)
  mutable body : (unit -> unit) option;  (* current job; [None] when idle *)
  mutable generation : int;
  mutable busy : int;      (* workers still inside the current job *)
  mutable workers : int;
  mutable handles : unit Domain.t list;
  mutable shutdown : bool;
}

let pool =
  {
    mutex = Mutex.create ();
    work_ready = Condition.create ();
    work_done = Condition.create ();
    body = None;
    generation = 0;
    busy = 0;
    workers = 0;
    handles = [];
    shutdown = false;
  }

let worker_loop () =
  Domain.DLS.set in_worker true;
  let my_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while (not pool.shutdown) && pool.generation = !my_gen do
      Condition.wait pool.work_ready pool.mutex
    done;
    if pool.shutdown then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      my_gen := pool.generation;
      let body = pool.body in
      Mutex.unlock pool.mutex;
      (match body with Some b -> b () | None -> ());
      Mutex.lock pool.mutex;
      pool.busy <- pool.busy - 1;
      if pool.busy = 0 then Condition.signal pool.work_done;
      Mutex.unlock pool.mutex
    end
  done

let shutdown_pool () =
  Mutex.lock pool.mutex;
  pool.shutdown <- true;
  Condition.broadcast pool.work_ready;
  let hs = pool.handles in
  pool.handles <- [];
  Mutex.unlock pool.mutex;
  List.iter Domain.join hs

let at_exit_registered = ref false

(* Called with [pool.mutex] held. *)
let ensure_workers needed =
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit shutdown_pool
  end;
  while pool.workers < needed do
    pool.workers <- pool.workers + 1;
    pool.handles <- Domain.spawn worker_loop :: pool.handles
  done

(* Only one map may drive the pool at a time; concurrent submitters (not
   a pattern this codebase uses, but cheap to make safe) fall back to a
   sequential map instead of deadlocking on the generation protocol. *)
let submit_lock = Mutex.create ()

(* Run [f] over indices [1..n-1] of [xs] on the pool plus the calling
   domain, writing into [results].  Index 0 was computed by the caller to
   seed the result array.  The first exception from any chunk is
   captured, remaining chunks are abandoned, and it is re-raised (with
   its backtrace) on the calling domain once the job drains. *)
let run_pooled d f xs n results =
  let chunk = max 1 (n / (d * 4)) in
  let next = Atomic.make 1 in
  let err = Atomic.make None in
  let body () =
    let continue = ref true in
    while !continue do
      let lo = Atomic.fetch_and_add next chunk in
      if lo >= n then continue := false
      else begin
        let hi = min n (lo + chunk) in
        try
          for i = lo to hi - 1 do
            Array.unsafe_set results i (f (Array.unsafe_get xs i))
          done
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set err None (Some (e, bt)));
          Atomic.set next n (* abandon the remaining chunks *)
      end
    done
  in
  Mutex.lock pool.mutex;
  ensure_workers (d - 1);
  pool.body <- Some body;
  pool.generation <- pool.generation + 1;
  pool.busy <- pool.workers;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  body ();
  Mutex.lock pool.mutex;
  while pool.busy > 0 do
    Condition.wait pool.work_done pool.mutex
  done;
  pool.body <- None;
  Mutex.unlock pool.mutex;
  match Atomic.get err with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map_array ?domains f xs =
  let n = Array.length xs in
  let d =
    if Domain.DLS.get sequential_only then 1
    else match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let d = min d n in
  if n = 0 then [||]
  else if d <= 1 || n = 1 || Domain.DLS.get in_worker then Array.map f xs
  else if not (Mutex.try_lock submit_lock) then Array.map f xs
  else
    Fun.protect
      ~finally:(fun () -> Mutex.unlock submit_lock)
      (fun () ->
        let r0 = f xs.(0) in
        let results = Array.make n r0 in
        run_pooled d f xs n results;
        results)

let init ?domains n f = map_array ?domains f (Array.init n (fun i -> i))
