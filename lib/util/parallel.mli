(** Deterministic parallel map over a persistent pool of OCaml 5 domains.

    Tasks must be independent (no shared mutable state); results come back
    in input order, so parallel and sequential runs are indistinguishable.

    Worker domains are spawned lazily on the first parallel map and then
    reused for the life of the process (the pool grows when a call asks
    for more domains than exist, and is joined at exit), so repeated maps
    pay dispatch latency, not domain-spawn latency.  Work is distributed
    as fixed-size chunks pulled off a shared atomic index; the calling
    domain participates.  An exception in any task is re-raised on the
    calling domain.  A map issued from inside a pool worker (or while
    another map is driving the pool) runs sequentially instead of
    deadlocking.

    The pool sizes experiment sweep maps only: a sharded run executes its
    rounds inline on the calling domain. *)

val default_domains : unit -> int
(** Recommended worker count, leaving one core for the main domain.
    The [PSN_DOMAINS] environment variable, when set to a positive
    integer, pins this from the outside (CI re-runs the suite with
    [PSN_DOMAINS=1]); it is read per call. *)

val set_sequential : bool -> unit
(** Force every map issued from the calling domain onto that domain (a
    per-domain flag).  Results are identical either way, only wall-clock
    changes. *)

val sequentially : (unit -> 'a) -> 'a
(** [sequentially f] runs [f] with the calling domain's maps forced
    sequential, and restores the previous setting even on exceptions.
    {!Psn_obs.Trace.with_default} and
    {!Psn_obs.Metrics.with_default_timeline} wrap their thunk in it: the
    defaults they install are per domain, so a task on a worker domain
    would not see them. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array

val init : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [init n f] computes [f 0 .. f (n-1)] in parallel. *)
