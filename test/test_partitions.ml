(* Network partitions: in the asynchronous model a partition is an
   arbitrarily long message delay, so safety must hold throughout and
   liveness must resume once the partition heals. *)

open Des
open Net
open Runtime

let test_network_partition_buffers () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let sched = Scheduler.create () in
  let received = ref [] in
  let net =
    Network.create ~sched ~topology:topo ~latency:Util.crisp_latency
      ~rng:(Rng.create 0)
      ~deliver:(fun ~src:_ ~dst:_ payload ->
        received := (payload, Scheduler.now sched) :: !received)
  in
  Network.partition net ~src_group:0 ~dst_group:1;
  Network.send_multi net ~src:0 ~dsts:[ 1 ] "parked";
  Scheduler.run ~until:(Sim_time.of_ms 500) sched;
  Alcotest.(check int) "nothing through the partition" 0
    (List.length !received);
  Alcotest.(check int) "message parked, not dropped" 1 (Network.in_flight net);
  ignore
    (Scheduler.at_tagged sched Scheduler.Tag.generic (Sim_time.of_ms 600) (fun () ->
         Network.heal net ~src_group:0 ~dst_group:1));
  Scheduler.run sched;
  (match !received with
  | [ ("parked", t) ] ->
    if Sim_time.compare t (Sim_time.of_ms 600) < 0 then
      Alcotest.fail "delivered before heal"
  | _ -> Alcotest.fail "expected exactly the parked message");
  Alcotest.(check int) "drained" 0 (Network.in_flight net)

let test_network_partition_groups_and_heal_all () =
  let topo = Topology.symmetric ~groups:3 ~per_group:1 in
  let sched = Scheduler.create () in
  let received = ref 0 in
  let net =
    Network.create ~sched ~topology:topo ~latency:Util.crisp_latency
      ~rng:(Rng.create 0)
      ~deliver:(fun ~src:_ ~dst:_ _ -> incr received)
  in
  Network.partition_groups net [ 0 ] [ 1; 2 ];
  Network.send_multi net ~src:0 ~dsts:[ 1 ] ();
  Network.send_multi net ~src:1 ~dsts:[ 0 ] ();
  Network.send_multi net ~src:1 ~dsts:[ 2 ] (); (* inside the majority side: flows *)
  Scheduler.run ~until:(Sim_time.of_ms 400) sched;
  Alcotest.(check int) "only the unpartitioned message" 1 !received;
  ignore
    (Scheduler.at_tagged sched Scheduler.Tag.generic (Sim_time.of_ms 500) (fun () -> Network.heal_all net));
  Scheduler.run sched;
  Alcotest.(check int) "all delivered after heal" 3 !received

(* A1 across a partition: the message is cast while the two destination
   groups cannot talk; each group stamps it locally but nobody can finish
   stage s1. Nothing may be delivered inconsistently meanwhile, and healing
   completes the protocol. *)
let test_a1_delivery_waits_for_heal () =
  let module R = Harness.Runner.Make (Amcast.A1) in
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = R.deploy ~latency:Util.crisp_latency topo in
  let net = Engine.network (R.engine d) in
  Engine.at (R.engine d) (Sim_time.of_us 500) (fun () ->
      Network.partition_groups net [ 0 ] [ 1 ]);
  let id = R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0; 1 ] () in
  (* Consensus timeouts keep firing during the partition, so run with a
     horizon rather than to quiescence. *)
  let r1 = R.run_deployment ~until:(Sim_time.of_ms 400) d in
  Alcotest.(check int) "no deliveries during the partition" 0
    (List.length (Harness.Run_result.deliveries_of r1 id));
  Engine.at (R.engine d) (Sim_time.of_ms 450) (fun () -> Network.heal_all net);
  let r2 = R.run_deployment d in
  Util.check_no_violations "safety across partition+heal"
    (Harness.Checker.check_all r2);
  Alcotest.(check int) "all four deliver after heal" 4
    (List.length (Harness.Run_result.deliveries_of r2 id))

(* Asymmetric (one-directional) partition during an in-flight multi-group
   A1 cast: group 1 -> group 0 is cut while group 0 -> group 1 still
   flows. The cast from group 0 reaches group 1, which collects both
   groups' timestamps and can finish; group 0 is missing group 1's stage
   answer and must wait for the heal. Nothing inconsistent may happen in
   between, and the heal completes the run at A1's normal latency degree 2
   (partitions are pure delay: they stretch time, not the Lamport
   degree, and the stage-skipping optimisations stay sound). *)
let test_a1_asymmetric_partition () =
  let module R = Harness.Runner.Make (Amcast.A1) in
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = R.deploy ~latency:Util.crisp_latency topo in
  let net = Engine.network (R.engine d) in
  Engine.at (R.engine d) (Sim_time.of_us 500) (fun () ->
      Network.partition net ~src_group:1 ~dst_group:0);
  let id = R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0; 1 ] () in
  let r1 = R.run_deployment ~until:(Sim_time.of_ms 400) d in
  let groups_delivered r =
    List.map
      (fun (ev : Harness.Run_result.delivery_event) ->
        Topology.group_of topo ev.pid)
      (Harness.Run_result.deliveries_of r id)
    |> List.sort_uniq Int.compare
  in
  Alcotest.(check (list int))
    "during the cut only the side with both timestamps delivers" [ 1 ]
    (groups_delivered r1);
  Engine.at (R.engine d) (Sim_time.of_ms 450) (fun () -> Network.heal_all net);
  let r2 = R.run_deployment d in
  Util.check_no_violations "safety across asymmetric partition"
    (Harness.Checker.check_all r2);
  Alcotest.(check int) "all four deliver after heal" 4
    (List.length (Harness.Run_result.deliveries_of r2 id));
  Alcotest.(check int) "degree 2 preserved" 2 (Util.degree_of r2 id)

(* A2: a partitioned group cannot finish any round; messages delivered
   before the partition stay consistent, and the backlog flushes after
   healing. *)
let test_a2_backlog_flushes_after_heal () =
  let module R = Harness.Runner.Make (Amcast.A2) in
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = R.deploy ~latency:Util.crisp_latency topo in
  let net = Engine.network (R.engine d) in
  let all = Topology.all_groups topo in
  (* One message before the partition, two during it. *)
  ignore (R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:all ());
  Engine.at (R.engine d) (Sim_time.of_ms 150) (fun () ->
      Network.partition_groups net [ 0 ] [ 1 ]);
  ignore (R.cast_at d ~at:(Sim_time.of_ms 200) ~origin:0 ~dest:all ());
  ignore (R.cast_at d ~at:(Sim_time.of_ms 210) ~origin:2 ~dest:all ());
  let r1 = R.run_deployment ~until:(Sim_time.of_ms 600) d in
  Alcotest.(check int) "only the pre-partition message delivered" 1
    (Harness.Metrics.delivered_count r1);
  Engine.at (R.engine d) (Sim_time.of_ms 700) (fun () -> Network.heal_all net);
  let r2 = R.run_deployment d in
  Util.check_no_violations "safety across partition+heal"
    (Harness.Checker.check_all r2);
  Alcotest.(check int) "backlog flushed" 3 (Harness.Metrics.delivered_count r2)

(* Repeated partition/heal cycles (a "nemesis" schedule) with traffic
   throughout: total order must survive every cycle. *)
let test_a2_nemesis_cycles () =
  let module R = Harness.Runner.Make (Amcast.A2) in
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = R.deploy ~latency:Util.crisp_latency topo in
  let net = Engine.network (R.engine d) in
  let all = Topology.all_groups topo in
  for cycle = 0 to 2 do
    let base = 400 * cycle in
    Engine.at (R.engine d)
      (Sim_time.of_ms (base + 100))
      (fun () -> Network.partition_groups net [ 0 ] [ 1 ]);
    Engine.at (R.engine d)
      (Sim_time.of_ms (base + 300))
      (fun () -> Network.heal_all net);
    ignore
      (R.cast_at d ~at:(Sim_time.of_ms (base + 50)) ~origin:0 ~dest:all ());
    ignore
      (R.cast_at d ~at:(Sim_time.of_ms (base + 150)) ~origin:2 ~dest:all ())
  done;
  let r = R.run_deployment d in
  Util.check_no_violations "safety over nemesis cycles"
    (Harness.Checker.check_all r);
  Alcotest.(check int) "all six delivered" 6 (Harness.Metrics.delivered_count r)

let suites =
  [
    ( "partitions",
      [
        Alcotest.test_case "network buffers across partition" `Quick
          test_network_partition_buffers;
        Alcotest.test_case "group partition + heal_all" `Quick
          test_network_partition_groups_and_heal_all;
        Alcotest.test_case "a1 waits for heal" `Quick
          test_a1_delivery_waits_for_heal;
        Alcotest.test_case "a1 asymmetric partition" `Quick
          test_a1_asymmetric_partition;
        Alcotest.test_case "a2 backlog flushes after heal" `Quick
          test_a2_backlog_flushes_after_heal;
        Alcotest.test_case "a2 nemesis cycles" `Quick test_a2_nemesis_cycles;
      ] );
  ]
