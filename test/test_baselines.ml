open Des
open Net
module RSkeen = Harness.Runner.Make (Amcast.Skeen)
module RRing = Harness.Runner.Make (Amcast.Ring)
module RScal = Harness.Runner.Make (Amcast.Scalable)
module RSeq = Harness.Runner.Make (Amcast.Sequencer)
module ROpt = Harness.Runner.Make (Amcast.Optimistic)
module RVia = Harness.Runner.Make (Amcast.Via_broadcast)
module RDm = Harness.Runner.Make (Amcast.Detmerge)
module RFrz = Harness.Runner.Make (Amcast.Fritzke)

let single ~origin ~dest =
  Harness.Workload.single ~at:(Sim_time.of_ms 1) ~origin ~dest ()

let stream topo seed n kmax =
  let rng = Rng.create seed in
  Harness.Workload.generate ~rng ~topology:topo ~n
    ~dest:(Harness.Workload.Random_groups kmax)
    ~arrival:(`Every (Sim_time.of_ms 15))
    ()

(* ---------- Skeen ---------- *)

let test_skeen_degree_two () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let r = RSkeen.run ~latency:Util.crisp_latency topo (single ~origin:0 ~dest:[ 0; 1 ]) in
  Util.check_no_violations "safety"
    (Harness.Checker.check_all ~expect_genuine:true r);
  Alcotest.(check (option int)) "degree 2" (Some 2)
    (Harness.Metrics.max_latency_degree r)

let test_skeen_stream () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let r =
    Util.within_budget ~clean:518 (fun ~max_steps ->
        RSkeen.run ~max_steps topo (stream topo 41 25 3))
  in
  Util.check_no_violations "safety"
    (Harness.Checker.check_all ~expect_genuine:true r);
  Alcotest.(check int) "all delivered" 25 (Harness.Metrics.delivered_count r)

(* ---------- Ring [4] ---------- *)

let test_ring_degree_k_plus_one () =
  (* Origin in the last group of a 3-group chain: 1 hop to the head, 2
     hand-offs, 1 final acknowledgment = 4 = k + 1. *)
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let r =
    RRing.run ~latency:Util.crisp_latency topo
      (single ~origin:4 ~dest:[ 0; 1; 2 ])
  in
  Util.check_no_violations "safety"
    (Harness.Checker.check_all ~expect_genuine:true r);
  Alcotest.(check (option int)) "degree k+1" (Some 4)
    (Harness.Metrics.max_latency_degree r)

let test_ring_stream () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let r =
    Util.within_budget ~clean:668 (fun ~max_steps ->
        RRing.run ~max_steps topo (stream topo 42 20 3))
  in
  Util.check_no_violations "safety"
    (Harness.Checker.check_all ~expect_genuine:true r);
  Alcotest.(check int) "all delivered" 20 (Harness.Metrics.delivered_count r)

let test_ring_crash_member () =
  let topo = Topology.symmetric ~groups:2 ~per_group:3 in
  let faults = [ Harness.Runner.crash ~at:(Sim_time.of_ms 2) 4 ] in
  let r =
    RRing.run ~latency:Util.crisp_latency ~faults topo
      (single ~origin:0 ~dest:[ 0; 1 ])
  in
  Util.check_no_violations "safety" (Harness.Checker.check_all r)

(* Ring's consensus prunes decided instances. Every message a process
   delivers was stamped by its group in an instance of its own, so the
   delivered count bounds the decided instances from below; after a
   crash-free stream each process keeps at most two records, whatever
   the stream's length. *)
let prop_ring_bounded_consensus (seed, n) =
  let topo = Topology.symmetric ~groups:3 ~per_group:3 in
  let d = RRing.deploy ~seed topo in
  ignore (RRing.schedule d (stream topo seed n 3));
  let r = RRing.run_deployment d in
  List.for_all
    (fun pid ->
      let delivered = List.length (Harness.Run_result.sequence_of r pid) in
      let retained =
        List.assoc "cons.instances" (Amcast.Ring.stats (RRing.node d pid))
      in
      (retained <= 2 && 4 * retained <= delivered)
      || QCheck2.Test.fail_reportf
           "seed=%d n=%d: p%d retains %d instance records after %d \
            deliveries"
           seed n pid retained delivered)
    (Topology.all_pids topo)

(* ---------- Scalable [10] ---------- *)

let test_scalable_degree_four () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let r =
    RScal.run ~latency:Util.crisp_latency topo (single ~origin:0 ~dest:[ 0; 1 ])
  in
  Util.check_no_violations "safety"
    (Harness.Checker.check_all ~expect_genuine:true r);
  Alcotest.(check (option int)) "degree 4" (Some 4)
    (Harness.Metrics.max_latency_degree r)

let test_scalable_stream () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let r =
    Util.within_budget ~clean:1123 (fun ~max_steps ->
        RScal.run ~max_steps topo (stream topo 43 20 3))
  in
  Util.check_no_violations "safety"
    (Harness.Checker.check_all ~expect_genuine:true r);
  Alcotest.(check int) "all delivered" 20 (Harness.Metrics.delivered_count r)

(* ---------- Sequencer [13] ---------- *)

let test_sequencer_degree_two () =
  (* Best case: the caster shares the sequencer's group. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let r =
    RSeq.run ~latency:Util.crisp_latency topo
      (Harness.Workload.broadcast_single ~at:(Sim_time.of_ms 1) ~origin:1 topo)
  in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  Alcotest.(check (option int)) "final degree 2" (Some 2)
    (Harness.Metrics.max_latency_degree r)

let test_sequencer_stream_total_order () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let rng = Rng.create 44 in
  let w =
    Harness.Workload.generate ~rng ~topology:topo ~n:15
      ~dest:Harness.Workload.To_all_groups
      ~arrival:(`Every (Sim_time.of_ms 12))
      ()
  in
  let r =
    Util.within_budget ~clean:705 (fun ~max_steps ->
        RSeq.run ~max_steps topo w)
  in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  Alcotest.(check int) "all delivered" 15 (Harness.Metrics.delivered_count r)

let test_sequencer_opt_precedes_final () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = RSeq.deploy ~latency:Util.crisp_latency topo in
  ignore
    (RSeq.cast_at d ~at:(Sim_time.of_ms 1) ~origin:1 ~dest:[ 0; 1 ] ());
  let r = RSeq.run_deployment d in
  List.iter
    (fun pid ->
      let opt = Amcast.Sequencer.optimistic_deliveries (RSeq.node d pid) in
      let final = Harness.Run_result.sequence_of r pid in
      Alcotest.(check int)
        (Fmt.str "p%d optimistic count" pid)
        (List.length final) (List.length opt))
    (Topology.all_pids topo)

(* ---------- Optimistic [12] ---------- *)

let test_optimistic_final_degree_two () =
  (* The caster is outside the sequencer's group (the general case the
     paper's table reports): data hop + order hop. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let r =
    ROpt.run ~latency:Util.crisp_latency topo
      (Harness.Workload.broadcast_single ~at:(Sim_time.of_ms 1) ~origin:2 topo)
  in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  Alcotest.(check (option int)) "final degree 2" (Some 2)
    (Harness.Metrics.max_latency_degree r)

let test_optimistic_spontaneous_order () =
  (* With symmetric links and a sufficient window, the optimistic order
     matches the final order: zero mistakes. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let config =
    (* The compensation window must cover the spread between intra and
       inter-group latencies (1ms vs 50ms here). *)
    { Amcast.Protocol.Config.default with opt_window = Sim_time.of_ms 60 }
  in
  let d = ROpt.deploy ~latency:Util.crisp_latency ~config topo in
  ignore (ROpt.cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0; 1 ] ());
  ignore (ROpt.cast_at d ~at:(Sim_time.of_ms 2) ~origin:2 ~dest:[ 0; 1 ] ());
  ignore (ROpt.cast_at d ~at:(Sim_time.of_ms 3) ~origin:3 ~dest:[ 0; 1 ] ());
  let r = ROpt.run_deployment d in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  List.iter
    (fun pid ->
      Alcotest.(check int)
        (Fmt.str "p%d optimistic mistakes" pid)
        0
        (Amcast.Optimistic.optimistic_mistakes (ROpt.node d pid)))
    (Topology.all_pids topo)

(* ---------- Via-broadcast (non-genuine multicast) ---------- *)

let test_via_broadcast_filters () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let r =
    RVia.run ~latency:Util.crisp_latency topo (single ~origin:0 ~dest:[ 0; 2 ])
  in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  (* Only groups 0 and 2 deliver... *)
  let deliverers =
    List.map (fun (d : Harness.Run_result.delivery_event) -> d.pid) r.deliveries
    |> List.sort_uniq Int.compare
  in
  Alcotest.(check (list int)) "addressees only" [ 0; 1; 4; 5 ] deliverers;
  (* ...but the protocol is not genuine: bystander group 1 took part. *)
  Alcotest.(check bool) "non-genuine" true
    (Harness.Checker.genuineness r <> [])

let test_via_broadcast_order_with_streams () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let r =
    Util.within_budget ~clean:372 (fun ~max_steps ->
        RVia.run ~max_steps topo (stream topo 45 20 2))
  in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  Alcotest.(check int) "all delivered" 20 (Harness.Metrics.delivered_count r)

(* ---------- Deterministic merge [1] ---------- *)

let test_detmerge_delivers_in_order () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let rng = Rng.create 46 in
  let w =
    Harness.Workload.generate ~rng ~topology:topo ~n:10
      ~dest:Harness.Workload.To_all_groups
      ~arrival:(`Every (Sim_time.of_ms 8))
      ()
  in
  (* Never quiescent: run under a horizon. *)
  let r = RDm.run ~latency:Util.crisp_latency ~until:(Sim_time.of_sec 1.) topo w in
  Util.check_no_violations "integrity" (Harness.Checker.uniform_integrity r);
  Util.check_no_violations "prefix order"
    (Harness.Checker.uniform_prefix_order r);
  Alcotest.(check int) "all delivered" 10 (Harness.Metrics.delivered_count r)

let test_detmerge_multicast_filters () =
  let topo = Topology.symmetric ~groups:3 ~per_group:1 in
  let r =
    RDm.run ~latency:Util.crisp_latency ~until:(Sim_time.of_sec 1.) topo
      (single ~origin:0 ~dest:[ 0; 1 ])
  in
  Util.check_no_violations "integrity" (Harness.Checker.uniform_integrity r);
  let deliverers =
    List.map (fun (d : Harness.Run_result.delivery_event) -> d.pid) r.deliveries
    |> List.sort_uniq Int.compare
  in
  Alcotest.(check (list int)) "addressees only" [ 0; 1 ] deliverers

(* ---------- Fritzke [5] ---------- *)

let test_fritzke_degree_two () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let r =
    RFrz.run ~latency:Util.crisp_latency topo (single ~origin:0 ~dest:[ 0; 1 ])
  in
  Util.check_no_violations "safety"
    (Harness.Checker.check_all ~expect_genuine:true r);
  Alcotest.(check (option int)) "degree still 2" (Some 2)
    (Harness.Metrics.max_latency_degree r)

let test_fritzke_more_consensus_than_a1 () =
  (* The ablation in miniature: same workload, count consensus instances.
     A single-group message costs Fritzke a second instance that A1 skips. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let w = single ~origin:0 ~dest:[ 0 ] in
  let module RA1 = Harness.Runner.Make (Amcast.A1) in
  let da1 = RA1.deploy ~latency:Util.crisp_latency topo in
  ignore (RA1.schedule da1 w);
  ignore (RA1.run_deployment da1);
  let dfrz = RFrz.deploy ~latency:Util.crisp_latency topo in
  ignore (RFrz.schedule dfrz w);
  ignore (RFrz.run_deployment dfrz);
  let a1_instances = Amcast.A1.consensus_instances_executed (RA1.node da1 0) in
  let frz_instances =
    Amcast.Fritzke.consensus_instances_executed (RFrz.node dfrz 0)
  in
  Alcotest.(check int) "A1: one instance" 1 a1_instances;
  Alcotest.(check bool)
    (Fmt.str "Fritzke runs more instances (%d > %d)" frz_instances a1_instances)
    true
    (frz_instances > a1_instances)

let test_fritzke_stream () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let r =
    Util.within_budget ~clean:672 (fun ~max_steps ->
        RFrz.run ~max_steps topo (stream topo 47 15 3))
  in
  Util.check_no_violations "safety"
    (Harness.Checker.check_all ~expect_genuine:true r);
  Alcotest.(check int) "all delivered" 15 (Harness.Metrics.delivered_count r)


(* ---------- further edge cases ---------- *)

let test_optimistic_mistakes_with_short_window () =
  (* With a window shorter than the latency spread, spontaneous order
     breaks (local messages jump the queue), but the final sequenced order
     must still satisfy every safety property. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let config =
    { Amcast.Protocol.Config.default with opt_window = Sim_time.of_ms 2 }
  in
  let d = ROpt.deploy ~latency:Util.crisp_latency ~config topo in
  ignore (ROpt.cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0; 1 ] ());
  ignore (ROpt.cast_at d ~at:(Sim_time.of_ms 2) ~origin:2 ~dest:[ 0; 1 ] ());
  ignore (ROpt.cast_at d ~at:(Sim_time.of_ms 3) ~origin:3 ~dest:[ 0; 1 ] ());
  let r = ROpt.run_deployment d in
  Util.check_no_violations "final order still safe"
    (Harness.Checker.check_all r);
  let mistakes =
    List.fold_left
      (fun acc pid ->
        acc + Amcast.Optimistic.optimistic_mistakes (ROpt.node d pid))
      0 (Topology.all_pids topo)
  in
  Alcotest.(check bool)
    (Fmt.str "some optimistic mistakes occurred (%d)" mistakes)
    true (mistakes > 0)

let test_detmerge_watermark_advances () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let d = RDm.deploy ~latency:Util.crisp_latency topo in
  let r0 = RDm.run_deployment ~until:(Sim_time.of_ms 5) d in
  ignore r0;
  let early = Amcast.Detmerge.watermark (RDm.node d 0) in
  let r1 = RDm.run_deployment ~until:(Sim_time.of_ms 500) d in
  ignore r1;
  let late = Amcast.Detmerge.watermark (RDm.node d 0) in
  Alcotest.(check bool)
    (Fmt.str "watermark advanced (%d -> %d)" early late)
    true (late > early)

let test_ring_single_group () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let r =
    RRing.run ~latency:Util.crisp_latency topo (single ~origin:4 ~dest:[ 1 ])
  in
  Util.check_no_violations "safety"
    (Harness.Checker.check_all ~expect_genuine:true r);
  Alcotest.(check int) "only g1 delivers" 2 (List.length r.deliveries)

let test_skeen_interleaved_batches () =
  (* Messages to disjoint and overlapping destination sets interleaved:
     exercises the blocking rule on unfinalised messages. *)
  let topo = Topology.symmetric ~groups:4 ~per_group:1 in
  let w =
    List.concat
      [
        single ~origin:0 ~dest:[ 0; 1 ];
        single ~origin:2 ~dest:[ 2; 3 ];
        single ~origin:1 ~dest:[ 1; 2 ];
        single ~origin:3 ~dest:[ 0; 3 ];
        single ~origin:0 ~dest:[ 0; 1; 2; 3 ];
      ]
  in
  let r = RSkeen.run topo w in
  Util.check_no_violations "safety"
    (Harness.Checker.check_all ~expect_genuine:true r);
  Alcotest.(check int) "all delivered" 5 (Harness.Metrics.delivered_count r)

let test_sequencer_sn_contiguous () =
  (* Final deliveries follow gapless sequence numbers even when assigns
     arrive out of order (jittery links). *)
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let rng = Rng.create 9 in
  let w =
    Harness.Workload.generate ~rng ~topology:topo ~n:12
      ~dest:Harness.Workload.To_all_groups
      ~arrival:(`Poisson (Sim_time.of_ms 8))
      ()
  in
  let d = RSeq.deploy ~seed:4 ~latency:Net.Latency.wan_default topo in
  ignore (RSeq.schedule d w);
  let r = RSeq.run_deployment d in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  List.iter
    (fun pid ->
      let opts = Amcast.Sequencer.optimistic_deliveries (RSeq.node d pid) in
      ignore opts)
    (Topology.all_pids topo);
  Alcotest.(check int) "all delivered" 12 (Harness.Metrics.delivered_count r)

let suites =
  [
    ( "skeen",
      [
        Alcotest.test_case "two groups: degree 2" `Quick test_skeen_degree_two;
        Alcotest.test_case "random stream" `Quick test_skeen_stream;
      ] );
    ( "ring",
      [
        Alcotest.test_case "degree k+1" `Quick test_ring_degree_k_plus_one;
        Alcotest.test_case "random stream" `Quick test_ring_stream;
        Alcotest.test_case "crash of a member" `Quick test_ring_crash_member;
        Util.qcheck_case ~count:20 ~name:"bounded consensus state"
          QCheck2.Gen.(pair (int_bound 10_000) (int_range 20 40))
          prop_ring_bounded_consensus;
      ] );
    ( "scalable",
      [
        Alcotest.test_case "degree 4" `Quick test_scalable_degree_four;
        Alcotest.test_case "random stream" `Quick test_scalable_stream;
      ] );
    ( "sequencer",
      [
        Alcotest.test_case "final degree 2" `Quick test_sequencer_degree_two;
        Alcotest.test_case "stream total order" `Quick
          test_sequencer_stream_total_order;
        Alcotest.test_case "optimistic precedes final" `Quick
          test_sequencer_opt_precedes_final;
      ] );
    ( "optimistic",
      [
        Alcotest.test_case "final degree 2" `Quick
          test_optimistic_final_degree_two;
        Alcotest.test_case "spontaneous order holds" `Quick
          test_optimistic_spontaneous_order;
      ] );
    ( "via-broadcast",
      [
        Alcotest.test_case "filters deliveries, not genuine" `Quick
          test_via_broadcast_filters;
        Alcotest.test_case "ordered streams" `Quick
          test_via_broadcast_order_with_streams;
      ] );
    ( "detmerge",
      [
        Alcotest.test_case "ordered delivery" `Quick
          test_detmerge_delivers_in_order;
        Alcotest.test_case "multicast filtering" `Quick
          test_detmerge_multicast_filters;
      ] );
    ( "fritzke",
      [
        Alcotest.test_case "degree still 2" `Quick test_fritzke_degree_two;
        Alcotest.test_case "more consensus than A1" `Quick
          test_fritzke_more_consensus_than_a1;
        Alcotest.test_case "random stream" `Quick test_fritzke_stream;
      ] );
    ( "baseline-edges",
      [
        Alcotest.test_case "optimistic: short window makes mistakes" `Quick
          test_optimistic_mistakes_with_short_window;
        Alcotest.test_case "detmerge: watermark advances" `Quick
          test_detmerge_watermark_advances;
        Alcotest.test_case "ring: single group" `Quick test_ring_single_group;
        Alcotest.test_case "skeen: interleaved batches" `Quick
          test_skeen_interleaved_batches;
        Alcotest.test_case "sequencer: contiguous sequence" `Quick
          test_sequencer_sn_contiguous;
      ] );
  ]
