(* Tests for psn_network: messaging, processes, sensing, flooding, duty
   cycling, and the sharded transport. *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Net = Psn_network.Net
module Process = Psn_network.Process
module Sensing = Psn_network.Sensing
module Exec_event = Psn_network.Exec_event
module World = Psn_world.World
module World_object = Psn_world.World_object
module Value = Psn_world.Value
module Rooms = Psn_world.Rooms
module Mobility = Psn_world.Mobility
module Vec2 = Psn_util.Vec2

(* --- Net --- *)

let test_net_send () =
  let engine = Engine.create () in
  let net = Net.create engine ~n:3 ~delay:Psn_sim.Delay_model.synchronous in
  let got = ref [] in
  Net.set_handler net 1 (fun ~src payload -> got := (src, payload) :: !got);
  Net.send net ~src:0 ~dst:1 "hello";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !got;
  Alcotest.(check int) "sent" 1 (Net.sent net);
  Alcotest.(check int) "delivered count" 1 (Net.delivered net)

let test_net_broadcast () =
  let engine = Engine.create () in
  let net = Net.create engine ~n:4 ~delay:Psn_sim.Delay_model.synchronous in
  let counts = Array.make 4 0 in
  for dst = 0 to 3 do
    Net.set_handler net dst (fun ~src:_ () -> counts.(dst) <- counts.(dst) + 1)
  done;
  Net.broadcast net ~src:2 ();
  Engine.run engine;
  Alcotest.(check (array int)) "all but sender" [| 1; 1; 0; 1 |] counts;
  Alcotest.(check int) "3 transmissions" 3 (Net.sent net)

let test_net_delay_applied () =
  let engine = Engine.create () in
  let net =
    Net.create engine ~n:2
      ~delay:
        (Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 10)
           ~max:(Sim_time.of_ms 10))
  in
  let at = ref Sim_time.zero in
  Net.set_handler net 1 (fun ~src:_ () -> at := Engine.now engine);
  ignore (Engine.schedule_at engine (Sim_time.of_ms 5) (fun () ->
      Net.send net ~src:0 ~dst:1 ()));
  Engine.run engine;
  Alcotest.(check bool) "delay 10ms" true (Sim_time.equal !at (Sim_time.of_ms 15))

let test_net_loss () =
  let engine = Engine.create () in
  let net =
    Net.create ~loss:(Psn_sim.Loss_model.bernoulli 1.0) engine ~n:2
      ~delay:Psn_sim.Delay_model.synchronous
  in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~src:_ () -> incr got);
  for _ = 1 to 10 do
    Net.send net ~src:0 ~dst:1 ()
  done;
  Engine.run engine;
  Alcotest.(check int) "all dropped" 0 !got;
  Alcotest.(check int) "drop count" 10 (Net.dropped net)

let test_net_words () =
  let engine = Engine.create () in
  let net =
    Net.create ~payload_words:String.length engine ~n:2
      ~delay:Psn_sim.Delay_model.synchronous
  in
  Net.send net ~src:0 ~dst:1 "abcd";
  Alcotest.(check int) "words" 4 (Net.words_transmitted net)

let test_net_topology () =
  let engine = Engine.create () in
  let g = Psn_util.Graph.create ~n:3 in
  Psn_util.Graph.add_edge g 0 1;
  let net = Net.create ~topology:g engine ~n:3 ~delay:Psn_sim.Delay_model.synchronous in
  let got = Array.make 3 0 in
  for dst = 0 to 2 do
    Net.set_handler net dst (fun ~src:_ () -> got.(dst) <- got.(dst) + 1)
  done;
  Net.broadcast net ~src:0 ();
  Engine.run engine;
  Alcotest.(check (array int)) "neighbors only" [| 0; 1; 0 |] got;
  Alcotest.check_raises "no link"
    (Invalid_argument "Net.send: no link between src and dst in the overlay")
    (fun () -> Net.send net ~src:0 ~dst:2 ())

let test_net_invalid () =
  let engine = Engine.create () in
  let net = Net.create engine ~n:2 ~delay:Psn_sim.Delay_model.synchronous in
  Alcotest.check_raises "self send" (Invalid_argument "Net.send: src = dst")
    (fun () -> Net.send net ~src:0 ~dst:0 ());
  Alcotest.check_raises "bad dst" (Invalid_argument "Net.send: dst out of range")
    (fun () -> Net.send net ~src:0 ~dst:5 ())

(* --- Process --- *)

let test_process_log () =
  let engine = Engine.create () in
  let p = Process.create engine ~id:3 in
  ignore (Process.log_event p Exec_event.Compute);
  ignore
    (Process.log_event ~vstamp:[| 1; 0 |] p
       (Exec_event.Sense { obj = 0; attr = "x"; value = Value.Int 1 }));
  ignore (Process.log_event ~sstamp:5 p (Exec_event.Send { dst = Some 1 }));
  Alcotest.(check int) "count" 3 (Process.event_count p);
  let e0 = Process.nth_event p 0 and e1 = Process.nth_event p 1 in
  Alcotest.(check int) "indices" 0 e0.Exec_event.index;
  Alcotest.(check int) "indices 1" 1 e1.Exec_event.index;
  Alcotest.(check bool) "sense is relevant" true (Exec_event.is_relevant e1);
  Alcotest.(check bool) "compute not relevant" false (Exec_event.is_relevant e0);
  Alcotest.(check string) "labels" "n" (Exec_event.kind_label e1)

let test_process_vars () =
  let engine = Engine.create () in
  let p = Process.create engine ~id:0 in
  Process.set_var p "x" (Value.Int 7);
  Alcotest.(check bool) "get" true
    (Value.equal (Process.get_var_exn p "x") (Value.Int 7));
  Alcotest.(check bool) "missing" true (Process.get_var p "y" = None);
  Alcotest.(check int) "vars list" 1 (List.length (Process.vars p))

(* --- Sensing --- *)

let test_sensing_filter_latency () =
  let engine = Engine.create () in
  let world = World.create engine in
  let o = World.add_object world ~name:"a" () in
  let id = World_object.id o in
  let sensed = ref [] in
  Sensing.attach
    ~latency:
      (Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 5)
         ~max:(Sim_time.of_ms 5))
    engine world
    ~filter:(fun c -> c.World.attr = "x")
    (fun c -> sensed := (Engine.now engine, c.World.new_value) :: !sensed);
  ignore (Engine.schedule_at engine (Sim_time.of_ms 10) (fun () ->
      World.set_attr world id "x" (Value.Int 1)));
  ignore (Engine.schedule_at engine (Sim_time.of_ms 20) (fun () ->
      World.set_attr world id "y" (Value.Int 2)));
  Engine.run engine;
  match !sensed with
  | [ (t, v) ] ->
      Alcotest.(check bool) "latency applied" true
        (Sim_time.equal t (Sim_time.of_ms 15));
      Alcotest.(check bool) "value" true (Value.equal v (Value.Int 1))
  | _ -> Alcotest.fail "expected exactly one sensed change"

let test_sensing_range () =
  let engine = Engine.create () in
  let world = World.create engine in
  let near = World.add_object world ~name:"near" ~pos:(Vec2.make 1.0 0.0) () in
  let far = World.add_object world ~name:"far" ~pos:(Vec2.make 9.0 0.0) () in
  let count = ref 0 in
  Sensing.attach_range engine world ~pos:Vec2.zero ~radius:2.0 ~attr:"x"
    (fun _ -> incr count);
  World.set_attr world (World_object.id near) "x" (Value.Int 1);
  World.set_attr world (World_object.id far) "x" (Value.Int 1);
  Engine.run engine;
  Alcotest.(check int) "only near sensed" 1 !count

let test_sensing_door_direction () =
  let engine = Engine.create ~seed:12L () in
  let world = World.create engine in
  let rooms = Rooms.hall ~doors:2 in
  let o = World.add_object world ~name:"v" () in
  let id = World_object.id o in
  let log = ref [] in
  Sensing.attach_door engine world ~rooms ~door_id:0 ~room:0 ~room_attr:"room"
    ~door_attr:"door" (fun dir _ -> log := dir :: !log);
  (* Manual crossing through door 0: into the hall, then out. *)
  World.set_attr world id "room" (Value.Int Rooms.outside);
  World.set_attr world id "door" (Value.Int 0);
  World.set_attr world id "room" (Value.Int 0);
  World.set_attr world id "door" (Value.Int 0);
  World.set_attr world id "room" (Value.Int Rooms.outside);
  (* Crossing through door 1 must not be attributed to sensor 0. *)
  World.set_attr world id "door" (Value.Int 1);
  World.set_attr world id "room" (Value.Int 0);
  Engine.run engine;
  Alcotest.(check bool) "entry then exit" true
    (List.rev !log = [ Sensing.Entry; Sensing.Exit ])

let test_sensing_door_bad_room () =
  let engine = Engine.create () in
  let world = World.create engine in
  let rooms = Rooms.corridor ~rooms:3 in
  Alcotest.check_raises "door/room mismatch"
    (Invalid_argument "Sensing.attach_door: door does not touch room")
    (fun () ->
      Sensing.attach_door engine world ~rooms ~door_id:0 ~room:2
        ~room_attr:"room" ~door_attr:"door" (fun _ _ -> ()))

let test_net_fifo () =
  (* Two messages on one channel with wildly different sampled delays must
     still deliver in send order when fifo is on. *)
  let engine = Engine.create ~seed:44L () in
  let net =
    Net.create ~fifo:true engine ~n:2
      ~delay:
        (Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 1)
           ~max:(Sim_time.of_ms 500))
  in
  let got = ref [] in
  Net.set_handler net 1 (fun ~src:_ k -> got := k :: !got);
  for k = 1 to 50 do
    Net.send net ~src:0 ~dst:1 k
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "in order" (List.init 50 (fun i -> i + 1))
    (List.rev !got)

let test_net_unordered_by_default () =
  (* Without fifo, the same workload reorders for some seed. *)
  let reordered seed =
    let engine = Engine.create ~seed () in
    let net =
      Net.create engine ~n:2
        ~delay:
          (Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 1)
             ~max:(Sim_time.of_ms 500))
    in
    let got = ref [] in
    Net.set_handler net 1 (fun ~src:_ k -> got := k :: !got);
    for k = 1 to 50 do
      Net.send net ~src:0 ~dst:1 k
    done;
    Engine.run engine;
    List.rev !got <> List.init 50 (fun i -> i + 1)
  in
  Alcotest.(check bool) "some seed reorders" true
    (List.exists reordered [ 1L; 2L; 3L ])

(* --- Flood --- *)

module Flood = Psn_network.Flood
module Graph = Psn_util.Graph

let test_flood_reaches_all () =
  let engine = Engine.create () in
  let topo = Graph.ring ~n:8 in
  let flood =
    Flood.create engine ~topology:topo
      ~delay:
        (Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 1)
           ~max:(Sim_time.of_ms 5))
  in
  let got = Array.make 8 0 in
  for node = 0 to 7 do
    Flood.set_handler flood node (fun ~origin:_ () -> got.(node) <- got.(node) + 1)
  done;
  Flood.flood flood ~src:3 ();
  Engine.run engine;
  Alcotest.(check (array int)) "exactly once everywhere but origin"
    [| 1; 1; 1; 0; 1; 1; 1; 1 |] got;
  (* Each node rebroadcasts once to both ring neighbors: bounded cost. *)
  Alcotest.(check bool) "bounded messages" true (Flood.messages_sent flood <= 16)

let test_flood_multiple_sources () =
  let engine = Engine.create () in
  let topo = Graph.ring ~n:5 in
  let flood =
    Flood.create engine ~topology:topo ~delay:Psn_sim.Delay_model.synchronous
  in
  let per_origin = Hashtbl.create 8 in
  for node = 0 to 4 do
    Flood.set_handler flood node (fun ~origin () ->
        Hashtbl.replace per_origin (origin, node) ())
  done;
  Flood.flood flood ~src:0 ();
  Flood.flood flood ~src:2 ();
  Engine.run engine;
  Alcotest.(check int) "both floods delivered everywhere" 8
    (Hashtbl.length per_origin)

(* The duplicate filter keeps one bit per (node, origin, seq) and grows
   with the seq; 320 floods per origin run it past its first growth,
   with random delays reordering floods in flight.  Handlers run at most
   once per flood, and exactly once at every other node without loss. *)
let test_flood_filter_many ~loss () =
  let n = 7 and floods = 320 in
  let engine = Engine.create ~seed:9L () in
  let flood =
    Flood.create ?loss engine ~topology:(Graph.ring ~n)
      ~delay:
        (Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 1)
           ~max:(Sim_time.of_ms 50))
  in
  let calls = Array.init n (fun _ -> Array.make_matrix n (floods + 1) 0) in
  for node = 0 to n - 1 do
    Flood.set_handler flood node (fun ~origin k ->
        calls.(node).(origin).(k) <- calls.(node).(origin).(k) + 1)
  done;
  let rng = Psn_util.Rng.create ~seed:5L () in
  for origin = 0 to n - 1 do
    let at = ref 0 in
    for k = 1 to floods do
      at := !at + Psn_util.Rng.int rng 20_000_000;
      Engine.schedule_at_unit engine (Sim_time.of_ns !at) (fun () ->
          Flood.flood flood ~src:origin k)
    done
  done;
  Engine.run engine;
  for node = 0 to n - 1 do
    for origin = 0 to n - 1 do
      for k = 1 to floods do
        let c = calls.(node).(origin).(k) in
        let want = if node = origin then 0 else 1 in
        if c > 1 || (c <> want && (loss = None || node = origin)) then
          Alcotest.failf "node %d got flood %d of origin %d %d times" node k
            origin c
      done
    done
  done

let test_flood_line_hops () =
  (* On a line, delivery time grows with hop distance. *)
  let engine = Engine.create () in
  let n = 5 in
  let topo = Graph.create ~n in
  for i = 0 to n - 2 do
    Graph.add_edge topo i (i + 1)
  done;
  let flood =
    Flood.create engine ~topology:topo
      ~delay:
        (Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 10)
           ~max:(Sim_time.of_ms 10))
  in
  let arrival = Array.make n Sim_time.zero in
  for node = 0 to n - 1 do
    Flood.set_handler flood node (fun ~origin:_ () ->
        arrival.(node) <- Engine.now engine)
  done;
  Flood.flood flood ~src:0 ();
  Engine.run engine;
  Alcotest.(check bool) "hop 4 at 40ms" true
    (Sim_time.equal arrival.(4) (Sim_time.of_ms 40))

(* --- Flood under a changing topology --- *)

let test_flood_under_churn () =
  (* The paper's L "is a dynamically changing graph": every 200 ms a
     random edge of the ring is toggled, and a removal that would
     disconnect it is reverted (as a routing layer would).  Flood reads
     the live topology, so every flood still reaches every node. *)
  let engine = Engine.create ~seed:33L () in
  let rng = Psn_util.Rng.create ~seed:33L () in
  let topo = Graph.ring ~n:6 in
  let flood =
    Flood.create engine ~topology:topo ~delay:Psn_sim.Delay_model.synchronous
  in
  let received = Array.make 6 0 in
  for node = 0 to 5 do
    Flood.set_handler flood node (fun ~origin:_ () ->
        received.(node) <- received.(node) + 1)
  done;
  let toggles = ref 0 in
  ignore
    (Engine.schedule_periodic engine ~start:(Sim_time.of_ms 200)
       ~period:(Sim_time.of_ms 200) ~until:(Sim_time.of_sec 60) (fun () ->
         let u = Psn_util.Rng.int rng 6 in
         let v = Psn_util.Rng.int rng 6 in
         if u <> v then
           if not (Graph.has_edge topo u v) then begin
             Graph.add_edge topo u v;
             incr toggles
           end
           else begin
             Graph.remove_edge topo u v;
             if Graph.connected topo then incr toggles
             else Graph.add_edge topo u v
           end;
         true));
  let floods = 20 in
  for k = 1 to floods do
    ignore
      (Engine.schedule_at engine
         (Sim_time.of_sec k)
         (fun () -> Flood.flood flood ~src:(k mod 6) ()))
  done;
  Engine.run ~until:(Sim_time.of_sec 60) engine;
  (* Every node hears every flood it did not originate. With synchronous
     hops the flood completes before the next churn tick can cut it. *)
  Array.iteri
    (fun node count ->
      let originated = List.length (List.filter (fun k -> k mod 6 = node) (List.init floods (fun i -> i + 1))) in
      Alcotest.(check int)
        (Printf.sprintf "node %d coverage" node)
        (floods - originated) count)
    received;
  Alcotest.(check bool) "topology changed" true (!toggles > 10)

(* --- Energy --- *)

module Energy = Psn_network.Energy

let test_energy_accounting () =
  let e = Energy.create ~n:2 () in
  Energy.charge_tx e 0 ~words:10;
  Energy.charge_rx e 1 ~words:10;
  let c = Energy.default_cost in
  Alcotest.(check (float 1e-9)) "tx" (10.0 *. c.Energy.tx_per_word)
    (Energy.node_total e 0);
  Alcotest.(check (float 1e-9)) "rx" (10.0 *. c.Energy.rx_per_word)
    (Energy.node_total e 1);
  Energy.charge_radio_time e 0 ~awake:(Sim_time.of_sec 10) ~asleep:(Sim_time.of_sec 90);
  Alcotest.(check bool) "listen dominates sleep" true
    (Energy.node_total e 0 > 10.0 *. c.Energy.listen_per_sec);
  Alcotest.(check (float 1e-9)) "total" (Energy.node_total e 0 +. Energy.node_total e 1)
    (Energy.total e);
  Alcotest.check_raises "bad node" (Invalid_argument "Energy: node out of range")
    (fun () -> Energy.charge_tx e 5 ~words:1)

(* --- Duty-cycled MAC --- *)

module Duty_mac = Psn_network.Duty_mac

let sched ~period_ms ~awake_ms ~offset_ms =
  {
    Duty_mac.period = Sim_time.of_ms period_ms;
    awake = Sim_time.of_ms awake_ms;
    offset = Sim_time.of_ms offset_ms;
  }

let test_duty_mac_waits_for_window () =
  let engine = Engine.create () in
  let mac =
    Duty_mac.create engine ~n:2
      ~link_delay:
        (Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 5)
           ~max:(Sim_time.of_ms 5))
      ~schedules:
        [| sched ~period_ms:1000 ~awake_ms:100 ~offset_ms:0;
           sched ~period_ms:1000 ~awake_ms:100 ~offset_ms:500 |]
  in
  let at = ref Sim_time.zero in
  Duty_mac.set_handler mac 1 (fun ~src:_ () -> at := Engine.now engine);
  (* Sent at t=10ms, arrives 15ms; node 1's window opens at 500ms. *)
  ignore
    (Engine.schedule_at engine (Sim_time.of_ms 10) (fun () ->
         Duty_mac.send mac ~src:0 ~dst:1 ()));
  Engine.run engine;
  Alcotest.(check bool) "held to window" true
    (Sim_time.equal !at (Sim_time.of_ms 500))

let test_duty_mac_in_window_immediate () =
  let engine = Engine.create () in
  let mac =
    Duty_mac.create engine ~n:2
      ~link_delay:
        (Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 5)
           ~max:(Sim_time.of_ms 5))
      ~schedules:
        [| sched ~period_ms:1000 ~awake_ms:100 ~offset_ms:0;
           sched ~period_ms:1000 ~awake_ms:100 ~offset_ms:0 |]
  in
  let at = ref Sim_time.zero in
  Duty_mac.set_handler mac 1 (fun ~src:_ () -> at := Engine.now engine);
  ignore
    (Engine.schedule_at engine (Sim_time.of_ms 10) (fun () ->
         Duty_mac.send mac ~src:0 ~dst:1 ()));
  Engine.run engine;
  Alcotest.(check bool) "delivered within window" true
    (Sim_time.equal !at (Sim_time.of_ms 15))

let test_duty_mac_aligned_faster () =
  (* Mean effective delay under aligned schedules beats unaligned. *)
  let run ~offsets =
    let engine = Engine.create ~seed:71L () in
    let rng = Engine.scenario_rng engine in
    let mac =
      Duty_mac.create engine ~n:4
        ~link_delay:
          (Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 1)
             ~max:(Sim_time.of_ms 5))
        ~schedules:
          (Array.init 4 (fun i ->
               sched ~period_ms:1000 ~awake_ms:100 ~offset_ms:(offsets i)))
    in
    for node = 0 to 3 do
      Duty_mac.set_handler mac node (fun ~src:_ () -> ())
    done;
    for _ = 1 to 200 do
      let src = Psn_util.Rng.int rng 4 in
      let dst = (src + 1 + Psn_util.Rng.int rng 3) mod 4 in
      let at = Sim_time.of_ms (Psn_util.Rng.int rng 30_000) in
      ignore (Engine.schedule_at engine at (fun () -> Duty_mac.send mac ~src ~dst ()))
    done;
    Engine.run engine;
    Psn_util.Stats.mean (Duty_mac.effective_delay_stats mac)
  in
  let aligned = run ~offsets:(fun _ -> 0) in
  let unaligned = run ~offsets:(fun i -> i * 250) in
  Alcotest.(check bool) "aligned schedules cut delay" true (aligned < unaligned)

let test_duty_mac_energy_integration () =
  let engine = Engine.create () in
  let energy = Energy.create ~n:2 () in
  let mac =
    Duty_mac.create ~energy engine ~n:2
      ~link_delay:Psn_sim.Delay_model.synchronous
      ~schedules:
        [| sched ~period_ms:100 ~awake_ms:100 ~offset_ms:0;
           sched ~period_ms:100 ~awake_ms:100 ~offset_ms:0 |]
  in
  Duty_mac.set_handler mac 1 (fun ~src:_ () -> ());
  Duty_mac.send mac ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check bool) "tx charged" true (Energy.node_total energy 0 > 0.0);
  Alcotest.(check bool) "rx charged" true (Energy.node_total energy 1 > 0.0);
  let before = Energy.total energy in
  Duty_mac.finalize_energy mac ~horizon:(Sim_time.of_sec 100);
  Alcotest.(check bool) "listen charged" true (Energy.total energy > before)

let test_duty_mac_invalid () =
  let engine = Engine.create () in
  Alcotest.(check bool) "zero awake rejected" true
    (try
       ignore
         (Duty_mac.create engine ~n:1
            ~link_delay:Psn_sim.Delay_model.synchronous
            ~schedules:[| sched ~period_ms:100 ~awake_ms:0 ~offset_ms:0 |]);
       false
     with Invalid_argument _ -> true)

(* --- Shard_net --- *)

module Exec = Psn_sim.Exec
module Shard_net = Psn_network.Shard_net

(* Relay chains over a lossy link, 6 pids in 3 groups: every pid starts
   4 chains at 0 s, and each delivery forwards to the next pid until
   hop 12 or a drop.  Returns the sorted deliveries (time ns, dst, src,
   chain, hop), the drops counted from [send]'s -1, and the transport's
   totals. *)
let shard_net_relay exec =
  let n = 6 and groups = 3 in
  let net =
    Shard_net.create ~loss:(Psn_sim.Loss_model.bernoulli 0.2) exec ~n ~groups
      ~group_of:(fun pid -> pid mod groups)
      ~delay:
        (Psn_sim.Delay_model.bounded_uniform ~min:(Sim_time.of_ms 5)
           ~max:(Sim_time.of_ms 40))
      ()
  in
  let log = ref [] and drops = ref 0 in
  let send ~src ~chain ~hop =
    let at = Shard_net.send net ~src ~dst:((src + 1) mod n) ~a:chain ~b:hop ~c:0 ~d:0 ~e:0 in
    if at < 0 then incr drops
  in
  for pid = 0 to n - 1 do
    let engine = Exec.engine exec ~group:(pid mod groups) in
    Shard_net.set_handler net pid (fun ~src ~a ~b ~c:_ ~d:_ ~e:_ ->
        log := (Sim_time.to_ns (Engine.now engine), pid, src, a, b) :: !log;
        if b < 12 then send ~src:pid ~chain:a ~hop:(b + 1));
    for k = 0 to 3 do
      Engine.schedule_at_unit engine Sim_time.zero (fun () ->
          send ~src:pid ~chain:((pid * 4) + k) ~hop:0)
    done
  done;
  Exec.run exec ~until:(Sim_time.of_sec 5);
  ( List.sort compare !log,
    !drops,
    (Shard_net.sent net, Shard_net.dropped net, Shard_net.words net) )

let test_shard_net_substrate_invariant () =
  let seed = 41L in
  let log, drops, (sent, dropped, words) = shard_net_relay (Exec.single ~seed ()) in
  Alcotest.(check int) "send's -1 counts the drops" dropped drops;
  Alcotest.(check int) "every send delivers or drops" sent
    (List.length log + dropped);
  Alcotest.(check int) "five words per send" (5 * sent) words;
  Alcotest.(check bool) "loss exercised" true (dropped > 0);
  Alcotest.(check bool) "some chain relays" true
    (List.exists (fun (_, _, _, _, hop) -> hop >= 3) log);
  List.iter
    (fun (t, dst, src, _, _) ->
      Alcotest.(check int) "delivered to the next pid" ((src + 1) mod 6) dst;
      Alcotest.(check bool) "delay within bounds" true
        (t >= Sim_time.to_ns (Sim_time.of_ms 5)))
    log;
  List.iter
    (fun k ->
      let log', drops', totals' =
        shard_net_relay
          (Exec.sharded ~seed ~shards:k ~lookahead:(Sim_time.of_ms 5) ())
      in
      let name = Printf.sprintf "K=%d" k in
      Alcotest.(check bool) (name ^ " deliveries") true (log = log');
      Alcotest.(check int) (name ^ " drops") drops drops';
      Alcotest.(check bool) (name ^ " totals") true ((sent, dropped, words) = totals'))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "psn_network"
    [
      ( "net",
        [
          Alcotest.test_case "send" `Quick test_net_send;
          Alcotest.test_case "broadcast" `Quick test_net_broadcast;
          Alcotest.test_case "delay" `Quick test_net_delay_applied;
          Alcotest.test_case "loss" `Quick test_net_loss;
          Alcotest.test_case "words" `Quick test_net_words;
          Alcotest.test_case "topology" `Quick test_net_topology;
          Alcotest.test_case "invalid" `Quick test_net_invalid;
          Alcotest.test_case "fifo" `Quick test_net_fifo;
          Alcotest.test_case "unordered default" `Quick
            test_net_unordered_by_default;
        ] );
      ( "process",
        [
          Alcotest.test_case "log" `Quick test_process_log;
          Alcotest.test_case "vars" `Quick test_process_vars;
        ] );
      ( "sensing",
        [
          Alcotest.test_case "filter+latency" `Quick test_sensing_filter_latency;
          Alcotest.test_case "range" `Quick test_sensing_range;
          Alcotest.test_case "door direction" `Quick test_sensing_door_direction;
          Alcotest.test_case "door bad room" `Quick test_sensing_door_bad_room;
        ] );
      ( "flood",
        [
          Alcotest.test_case "reaches all" `Quick test_flood_reaches_all;
          Alcotest.test_case "multiple sources" `Quick test_flood_multiple_sources;
          Alcotest.test_case "filter: 320 floods per origin, exactly once"
            `Quick (test_flood_filter_many ~loss:None);
          Alcotest.test_case "filter: 320 floods per origin, lossy, at most once"
            `Quick
            (test_flood_filter_many
               ~loss:(Some (Psn_sim.Loss_model.bernoulli 0.3)));
          Alcotest.test_case "line hops" `Quick test_flood_line_hops;
        ] );
      ( "churn",
        [
          Alcotest.test_case "flood under churn" `Quick test_flood_under_churn;
        ] );
      ("energy", [ Alcotest.test_case "accounting" `Quick test_energy_accounting ]);
      ( "duty_mac",
        [
          Alcotest.test_case "waits for window" `Quick test_duty_mac_waits_for_window;
          Alcotest.test_case "in-window immediate" `Quick
            test_duty_mac_in_window_immediate;
          Alcotest.test_case "aligned faster" `Quick test_duty_mac_aligned_faster;
          Alcotest.test_case "energy integration" `Quick
            test_duty_mac_energy_integration;
          Alcotest.test_case "invalid" `Quick test_duty_mac_invalid;
        ] );
      ( "shard_net",
        [
          Alcotest.test_case "same relay schedule at K = 1, 2, 3" `Quick
            test_shard_net_substrate_invariant;
        ] );
    ]
