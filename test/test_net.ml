open Net
open Des

let test_topology_basics () =
  let t = Topology.make ~sizes:[ 2; 3; 1 ] in
  Alcotest.(check int) "n" 6 (Topology.n_processes t);
  Alcotest.(check int) "groups" 3 (Topology.n_groups t);
  Alcotest.(check (list int)) "g0" [ 0; 1 ] (Topology.members t 0);
  Alcotest.(check (list int)) "g1" [ 2; 3; 4 ] (Topology.members t 1);
  Alcotest.(check (list int)) "g2" [ 5 ] (Topology.members t 2);
  Alcotest.(check int) "group_of 3" 1 (Topology.group_of t 3);
  Alcotest.(check bool) "same group" true (Topology.same_group t 2 4);
  Alcotest.(check bool) "different group" false (Topology.same_group t 1 2);
  Alcotest.(check (list int)) "pids_of_groups dedup" [ 0; 1; 5 ]
    (Topology.pids_of_groups t [ 2; 0; 0 ])

let test_topology_invalid () =
  Alcotest.check_raises "empty group"
    (Invalid_argument "Topology.make: empty group") (fun () ->
      ignore (Topology.make ~sizes:[ 2; 0 ]));
  Alcotest.check_raises "no groups" (Invalid_argument "Topology.make: no groups")
    (fun () -> ignore (Topology.make ~sizes:[]))

let test_latency_asymmetry () =
  let t = Topology.symmetric ~groups:2 ~per_group:2 in
  ignore t;
  let rng = Rng.create 0 in
  let lat = Util.crisp_latency in
  Alcotest.(check int) "intra" 1_000
    (Sim_time.to_us (Latency.sample lat rng ~src_group:0 ~dst_group:0));
  Alcotest.(check int) "inter" 50_000
    (Sim_time.to_us (Latency.sample lat rng ~src_group:0 ~dst_group:1))

let test_latency_matrix () =
  let inter =
    [|
      [| Sim_time.zero; Sim_time.of_ms 80 |];
      [| Sim_time.of_ms 120; Sim_time.zero |];
    |]
  in
  let lat = Latency.matrix ~intra:(Sim_time.of_ms 1) ~inter () in
  Alcotest.(check int) "asymmetric 0->1" 80_000
    (Sim_time.to_us (Latency.base lat ~src_group:0 ~dst_group:1));
  Alcotest.(check int) "asymmetric 1->0" 120_000
    (Sim_time.to_us (Latency.base lat ~src_group:1 ~dst_group:0));
  Alcotest.(check int) "intra" 1_000
    (Sim_time.to_us (Latency.base lat ~src_group:0 ~dst_group:0))

let test_latency_jitter_bounds () =
  let lat =
    Latency.uniform ~intra:(Sim_time.of_ms 1) ~inter:(Sim_time.of_ms 50)
      ~inter_jitter:(Sim_time.of_ms 5) ()
  in
  let rng = Rng.create 9 in
  for _ = 1 to 500 do
    let d = Sim_time.to_us (Latency.sample lat rng ~src_group:0 ~dst_group:1) in
    if d < 50_000 || d >= 55_000 then Alcotest.failf "jitter out of range: %d" d
  done

let make_net ?(latency = Util.crisp_latency) topology =
  let sched = Scheduler.create () in
  let rng = Rng.create 1 in
  let received = ref [] in
  let net =
    Network.create ~sched ~topology ~latency ~rng
      ~deliver:(fun ~src ~dst payload ->
        received := (src, dst, payload, Scheduler.now sched) :: !received)
  in
  (sched, net, received)

let test_network_delivers () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let sched, net, received = make_net topo in
  Network.send net ~src:0 ~dst:1 "local";
  Network.send net ~src:0 ~dst:2 "remote";
  Scheduler.run sched;
  let r = List.rev !received in
  (match r with
  | [ (0, 1, "local", t1); (0, 2, "remote", t2) ] ->
    Alcotest.(check int) "intra delay" 1_000 (Sim_time.to_us t1);
    Alcotest.(check int) "inter delay" 50_000 (Sim_time.to_us t2)
  | _ -> Alcotest.fail "unexpected deliveries");
  Alcotest.(check int) "total" 2 (Network.sent_total net);
  Alcotest.(check int) "inter" 1 (Network.sent_inter_group net);
  Alcotest.(check int) "intra" 1 (Network.sent_intra_group net)

let test_network_hold () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let sched, net, received = make_net topo in
  Network.send net ~src:0 ~dst:1 "early";
  Network.hold net ~src_group:0 ~dst_group:1 ~until:(Sim_time.of_ms 500);
  Network.send net ~src:0 ~dst:1 "late";
  Scheduler.run sched;
  List.iter
    (fun (_, _, _, t) ->
      if Sim_time.compare t (Sim_time.of_ms 500) < 0 then
        Alcotest.failf "delivered before hold expired: %a" Sim_time.pp t)
    !received;
  Alcotest.(check int) "both delivered" 2 (List.length !received)

let test_network_drop_inflight () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let sched, net, received = make_net topo in
  Network.send net ~src:0 ~dst:2 "a";
  Network.send net ~src:0 ~dst:3 "b";
  Network.send net ~src:1 ~dst:2 "c";
  let dropped = Network.drop_inflight net (fun ~src ~dst:_ -> src = 0) in
  Alcotest.(check int) "dropped count" 2 dropped;
  Scheduler.run sched;
  (match !received with
  | [ (1, 2, "c", _) ] -> ()
  | _ -> Alcotest.fail "only p1's message should survive");
  Alcotest.(check int) "in flight drained" 0 (Network.in_flight net)

let test_network_send_filter () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let sched, net, received = make_net topo in
  Network.set_send_filter net (Some (fun ~src ~dst:_ -> src <> 1));
  Network.send net ~src:0 ~dst:2 "keep";
  Network.send net ~src:1 ~dst:2 "muted";
  Scheduler.run sched;
  Alcotest.(check int) "only unfiltered arrives" 1 (List.length !received);
  Alcotest.(check int) "filtered not counted" 1 (Network.sent_total net)

let test_network_on_send_tap () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let sched, net, _ = make_net topo in
  let tapped = ref 0 in
  Network.on_send net (fun ~src:_ ~dst:_ _ -> incr tapped);
  Network.send net ~src:0 ~dst:1 "x";
  Network.send net ~src:1 ~dst:0 "y";
  Scheduler.run sched;
  Alcotest.(check int) "tap sees every send" 2 !tapped

let suites =
  [
    ( "net",
      [
        Alcotest.test_case "topology basics" `Quick test_topology_basics;
        Alcotest.test_case "topology invalid" `Quick test_topology_invalid;
        Alcotest.test_case "latency asymmetry" `Quick test_latency_asymmetry;
        Alcotest.test_case "latency matrix" `Quick test_latency_matrix;
        Alcotest.test_case "latency jitter bounds" `Quick
          test_latency_jitter_bounds;
        Alcotest.test_case "network delivers" `Quick test_network_delivers;
        Alcotest.test_case "network hold" `Quick test_network_hold;
        Alcotest.test_case "network drop inflight" `Quick
          test_network_drop_inflight;
        Alcotest.test_case "network send filter" `Quick
          test_network_send_filter;
        Alcotest.test_case "network send tap" `Quick test_network_on_send_tap;
      ] );
  ]
