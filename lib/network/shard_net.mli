(** Shard-aware message transport over an {!Psn_sim.Exec} substrate.

    The sharded counterpart of {!Net}, restructured for substrate
    invariance: where [Net] draws every message's delay and loss from
    one engine-owned stream (whose draw order depends on global
    execution interleaving), this transport gives {e each source
    process} its own stream derived from [(seed, src)].  Draws then
    happen in source-local program order, which is identical on the
    single-queue oracle and on any shard count — the property that makes
    same-seed sharded runs deliver every message at the same simulated
    time as the oracle.

    Payloads are five integer lanes (plus the source pid and a flow id
    routed internally); delivery is a per-destination handler.  Costs
    are counted as [shardnet.<label>.*] counters and a delay histogram
    in the {e source group's} registry — counters and histograms only,
    so {!Psn_sim.Exec.merged_metrics} of a sharded run equals the
    oracle's registry.  Flow ids are computed per source
    ([src * 2^40 + k]), not allocated from a sink, for the same
    order-invariance reason.

    When [sinks] is given (one per group), sends/drops trace into the
    source group's sink and deliveries into the destination group's, in
    the same shapes [Net] emits. *)

type t

val create :
  ?loss:Psn_sim.Loss_model.t ->
  ?label:string ->
  ?sinks:Psn_obs.Trace.sink array ->
  Psn_sim.Exec.t ->
  n:int ->
  groups:int ->
  group_of:(int -> int) ->
  delay:Psn_sim.Delay_model.t ->
  unit -> t
(** [n] processes (pids [0 .. n-1]); [group_of pid] must be in
    [0 .. groups-1] and, with [sinks], [Array.length sinks = groups].
    [group_of] is called once per pid, here.  Per-source streams derive
    from [Exec.seed]. *)

val set_handler :
  t -> int -> (src:int -> a:int -> b:int -> c:int -> d:int -> e:int -> unit) -> unit

val send : t -> src:int -> dst:int -> a:int -> b:int -> c:int -> d:int -> e:int -> int
(** Sample loss then delay from [src]'s stream; on survival, deliver the
    lanes to [dst]'s handler at [now + delay] and return that time in
    ns, else return [-1].  Must be called from an event executing on
    [src]'s group engine. *)

val sent : t -> int
val dropped : t -> int
val words : t -> int
(** Totals summed over the distinct per-shard registries (each send
    counts its five payload lanes as words on the wire). *)
