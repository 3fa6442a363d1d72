open Des
open Net
open Runtime

let test_oracle_detects () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let engine = Engine.create ~tag:(fun () -> "nil") topo in
  List.iter
    (fun pid ->
      Engine.spawn engine pid (fun _ ->
          ((), { Engine.on_receive = (fun ~src:_ () -> ()) })))
    (Topology.all_pids topo);
  let s0 = Engine.services engine 0 in
  let d = Fd.Detector.oracle ~delay:(Sim_time.of_ms 10) s0 in
  let changes = ref 0 in
  d.Fd.Detector.subscribe (fun () -> incr changes);
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 5) 2;
  Alcotest.(check bool) "not suspected before" false (d.Fd.Detector.suspects 2);
  Engine.run engine;
  Alcotest.(check bool) "suspected after" true (d.Fd.Detector.suspects 2);
  Alcotest.(check bool) "correct never suspected" false
    (d.Fd.Detector.suspects 1);
  Alcotest.(check int) "one change" 1 !changes

let test_oracle_leader () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let engine = Engine.create ~tag:(fun () -> "nil") topo in
  List.iter
    (fun pid ->
      Engine.spawn engine pid (fun _ ->
          ((), { Engine.on_receive = (fun ~src:_ () -> ()) })))
    (Topology.all_pids topo);
  let d = Fd.Detector.oracle ~delay:Sim_time.zero (Engine.services engine 1) in
  Alcotest.(check int) "initial leader" 0
    (Fd.Detector.leader d [ 0; 1; 2 ]);
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 1) 0;
  Engine.run engine;
  Alcotest.(check int) "leader rotates" 1
    (Fd.Detector.leader d [ 0; 1; 2 ]);
  Alcotest.(check int) "all suspected" (-1)
    (Fd.Detector.leader d [ 0 ])

(* Heartbeat detector: two processes, one crashes, the survivor suspects it
   after the timeout; no false suspicion while both are alive. *)
let test_heartbeat_detects_crash () =
  let topo = Topology.symmetric ~groups:1 ~per_group:2 in
  let engine =
    Engine.create ~latency:Util.crisp_latency
      ~tag:(fun (Fd.Heartbeat.Ping _) -> "fd.ping")
      topo
  in
  let detectors = Hashtbl.create 2 in
  List.iter
    (fun pid ->
      let hb =
        Engine.spawn engine pid (fun services ->
            let hb =
              Fd.Heartbeat.create ~services ~wrap:Fun.id
                ~monitored:(Topology.all_pids topo)
                ~period:(Sim_time.of_ms 5) ~timeout:(Sim_time.of_ms 20) ()
            in
            (hb, {
               Engine.on_receive =
                 (fun ~src m -> Fd.Heartbeat.handle hb ~src m);
             }))
      in
      Hashtbl.replace detectors pid hb)
    (Topology.all_pids topo);
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 100) 1;
  (* No false suspicion at 90ms. *)
  Engine.run ~until:(Sim_time.of_ms 90) engine;
  let d0 = Fd.Heartbeat.detector (Hashtbl.find detectors 0) in
  Alcotest.(check bool) "no false suspicion" false (d0.Fd.Detector.suspects 1);
  (* Crash at 100ms; suspicion by 100 + timeout + slack. *)
  Engine.run ~until:(Sim_time.of_ms 200) engine;
  Alcotest.(check bool) "crash suspected" true (d0.Fd.Detector.suspects 1);
  Fd.Heartbeat.stop (Hashtbl.find detectors 0);
  Fd.Heartbeat.stop (Hashtbl.find detectors 1)

(* Shared setup for the heartbeat adaptation tests: one group of two,
   each monitoring the other, with the crisp 1ms intra-group latency. *)
let heartbeat_pair ?max_timeout ~period ~timeout () =
  let topo = Topology.symmetric ~groups:1 ~per_group:2 in
  let engine =
    Engine.create ~latency:Util.crisp_latency
      ~tag:(fun (Fd.Heartbeat.Ping _) -> "fd.ping")
      topo
  in
  let detectors = Hashtbl.create 2 in
  List.iter
    (fun pid ->
      let hb =
        Engine.spawn engine pid (fun services ->
            let hb =
              Fd.Heartbeat.create ?max_timeout ~services ~wrap:Fun.id
                ~monitored:(Topology.all_pids topo)
                ~period ~timeout ()
            in
            (hb, {
               Engine.on_receive =
                 (fun ~src m -> Fd.Heartbeat.handle hb ~src m);
             }))
      in
      Hashtbl.replace detectors pid hb)
    (Topology.all_pids topo);
  (engine, fun pid -> Hashtbl.find detectors pid)

(* Regression for the unbounded ◇P back-off: each false suspicion doubles
   the peer timeout, but never beyond [max_timeout]. With timeout 20ms and
   cap 30ms, a first 50ms silence window doubles 20ms to the cap; a second
   36ms window must then still trigger a (false) suspicion at 30ms of
   silence — an uncapped detector would have backed off to 40ms and stayed
   silent. *)
let test_heartbeat_backoff_capped () =
  let engine, hb =
    heartbeat_pair ~max_timeout:(Sim_time.of_ms 30)
      ~period:(Sim_time.of_ms 5) ~timeout:(Sim_time.of_ms 20) ()
  in
  let net = Engine.network engine in
  let d0 = Fd.Heartbeat.detector (hb 0) in
  let notifications = ref 0 in
  d0.Fd.Detector.subscribe (fun () -> incr notifications);
  (* First silence window: 52ms..100ms. Last ping arrives at 51ms, so p0
     suspects at 71ms and revokes when the parked pings land at 101ms. *)
  Engine.at engine (Sim_time.of_ms 52) (fun () ->
      Network.partition net ~src_group:0 ~dst_group:0);
  Engine.at engine (Sim_time.of_ms 100) (fun () -> Network.heal_all net);
  (* Second window: 152ms..186ms. Last ping arrives at 151ms; with the
     capped 30ms timeout the deadline at 181ms beats the healed pings
     landing at 187ms. *)
  Engine.at engine (Sim_time.of_ms 152) (fun () ->
      Network.partition net ~src_group:0 ~dst_group:0);
  Engine.at engine (Sim_time.of_ms 186) (fun () -> Network.heal_all net);
  Engine.run ~until:(Sim_time.of_ms 120) engine;
  Alcotest.(check bool) "revoked after first heal" false
    (d0.Fd.Detector.suspects 1);
  Engine.run ~until:(Sim_time.of_ms 184) engine;
  Alcotest.(check bool) "capped timeout suspects again" true
    (d0.Fd.Detector.suspects 1);
  Engine.run ~until:(Sim_time.of_ms 300) engine;
  Alcotest.(check bool) "revoked after second heal" false
    (d0.Fd.Detector.suspects 1);
  Alcotest.(check int) "two suspicions, two revocations" 4 !notifications;
  Fd.Heartbeat.stop (hb 0);
  Fd.Heartbeat.stop (hb 1)

(* An FD storm ([Engine.perturb_fd] with a shrinking factor) forces false
   suspicions while everyone is alive; the ◇P back-off walks the shrunk
   timeouts back up, the suspicions are revoked, and a later real crash is
   still detected promptly. *)
let test_fd_storm_false_suspicions_recover () =
  let engine, hb =
    heartbeat_pair ~period:(Sim_time.of_ms 5) ~timeout:(Sim_time.of_ms 20) ()
  in
  let d0 = Fd.Heartbeat.detector (hb 0) in
  let notifications = ref 0 in
  d0.Fd.Detector.subscribe (fun () -> incr notifications);
  Engine.at engine (Sim_time.of_ms 52) (fun () -> Engine.perturb_fd engine 0.05);
  Engine.run ~until:(Sim_time.of_ms 150) engine;
  Alcotest.(check bool) "storm suspicions were revoked" false
    (d0.Fd.Detector.suspects 1);
  Alcotest.(check bool) "the storm forced at least one false suspicion" true
    (!notifications >= 2);
  (* A real crash after the storm is still detected: the walked-back
     timeout is small, not inert. *)
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 200) 1;
  Engine.run ~until:(Sim_time.of_ms 260) engine;
  Alcotest.(check bool) "real crash detected after the storm" true
    (d0.Fd.Detector.suspects 1);
  Fd.Heartbeat.stop (hb 0);
  Fd.Heartbeat.stop (hb 1)

let suites =
  [
    ( "fd",
      [
        Alcotest.test_case "oracle detects crash" `Quick test_oracle_detects;
        Alcotest.test_case "oracle leader rotation" `Quick test_oracle_leader;
        Alcotest.test_case "heartbeat detects crash" `Quick
          test_heartbeat_detects_crash;
        Alcotest.test_case "heartbeat back-off capped" `Quick
          test_heartbeat_backoff_capped;
        Alcotest.test_case "fd storm recovers" `Quick
          test_fd_storm_false_suspicions_recover;
      ] );
  ]
