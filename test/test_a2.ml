open Des
open Net
module R = Harness.Runner.Make (Amcast.A2)

let all_groups topo = Topology.all_groups topo

let run ?seed ?config ?faults topology workload =
  R.run ?seed ~latency:Util.crisp_latency ?config ?faults topology workload

let test_single_broadcast () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let w =
    Harness.Workload.broadcast_single ~at:(Sim_time.of_ms 1) ~origin:0 topo
  in
  let r = run topo w in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  Alcotest.(check int) "everyone delivers" 4 (List.length r.deliveries)

let test_cold_start_degree_two () =
  (* Theorem 5.2: a broadcast while the algorithm is quiescent costs two
     inter-group delays. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let w =
    Harness.Workload.broadcast_single ~at:(Sim_time.of_ms 1) ~origin:0 topo
  in
  let r = run topo w in
  Alcotest.(check (option int)) "degree 2 from cold" (Some 2)
    (Harness.Metrics.max_latency_degree r)

let test_warm_rounds_degree_one () =
  (* Theorem 5.1: a broadcast that lands in an already-running round is
     delivered with latency degree 1. Warm the deployment with a first
     broadcast, then cast the probe just before the next round's consensus
     closes. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let config =
    { Amcast.Protocol.Config.default with round_grace = Sim_time.of_ms 20 }
  in
  let d = R.deploy ~latency:Util.crisp_latency ~config topo in
  ignore
    (R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:0
       ~dest:(all_groups topo) ());
  (* The first broadcast is delivered at the caster's group around
     t=105ms, which opens round 2 there with a 20ms proposal grace. A
     probe cast inside that window rides round 2 and must arrive with
     latency degree 1. *)
  let probe =
    R.cast_at d ~at:(Sim_time.of_ms 110) ~origin:1 ~dest:(all_groups topo) ()
  in
  let r = R.run_deployment d in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  Alcotest.(check int) "probe delivered at degree 1" 1 (Util.degree_of r probe)

let test_quiescence_after_finite_broadcasts () =
  (* Proposition A.9: finitely many broadcasts => the deployment stops
     sending messages (the run drains). *)
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let rng = Rng.create 7 in
  let w =
    Harness.Workload.generate ~rng ~topology:topo ~n:10
      ~dest:Harness.Workload.To_all_groups
      ~arrival:(`Every (Sim_time.of_ms 10))
      ()
  in
  let r = run topo w in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  Util.check_no_violations "quiescence" (Harness.Checker.quiescence r);
  Alcotest.(check int) "all delivered" 10 (Harness.Metrics.delivered_count r)

let test_restart_after_quiescence () =
  (* Prediction mistakes are tolerated: a broadcast after quiescence is
     still delivered by everyone. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = R.deploy ~latency:Util.crisp_latency topo in
  ignore
    (R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:(all_groups topo) ());
  let r1 = R.run_deployment d in
  Util.check_no_violations "first message safe" (Harness.Checker.check_all r1);
  let wake =
    R.cast_at d
      ~at:(Sim_time.add (Runtime.Engine.now (R.engine d)) (Sim_time.of_ms 100))
      ~origin:3 ~dest:(all_groups topo) ()
  in
  let r2 = R.run_deployment d in
  Util.check_no_violations "second message safe" (Harness.Checker.check_all r2);
  Alcotest.(check bool) "wake-up message delivered by all" true
    (List.length (Harness.Run_result.deliveries_of r2 wake) = 4);
  Alcotest.(check int) "wake-up degree 2" 2 (Util.degree_of r2 wake)

let test_total_order_across_senders () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let w =
    List.concat_map
      (fun origin ->
        Harness.Workload.broadcast_single
          ~at:(Sim_time.of_ms (1 + origin)) ~origin topo)
      [ 0; 2; 4 ]
  in
  let r = run topo w in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  (* With broadcast, every pair of processes must end with the *same*
     sequence, not just prefix-related ones. *)
  let seqs =
    List.map
      (fun p ->
        List.map
          (fun (m : Amcast.Msg.t) -> Runtime.Msg_id.to_string m.id)
          (Harness.Run_result.sequence_of r p))
      (Topology.all_pids topo)
  in
  (match seqs with
  | s0 :: rest ->
    List.iter
      (fun s -> Alcotest.(check (list string)) "identical sequences" s0 s)
      rest
  | [] -> Alcotest.fail "no processes");
  Alcotest.(check int) "three messages" 3
    (List.length (List.hd seqs))

let test_crash_in_one_group () =
  let topo = Topology.symmetric ~groups:2 ~per_group:3 in
  let w =
    Harness.Workload.broadcast_single ~at:(Sim_time.of_ms 1) ~origin:0 topo
    @ Harness.Workload.broadcast_single ~at:(Sim_time.of_ms 30) ~origin:3 topo
  in
  let faults =
    [
      Harness.Runner.crash ~drop:Runtime.Engine.Lose_all_inflight
        ~at:(Sim_time.of_ms 2) 1;
    ]
  in
  let r = run topo ~faults w in
  Util.check_no_violations "safety" (Harness.Checker.check_all r)

let test_caster_crashes_after_local_rmcast () =
  (* The caster crashes right after its intra-group R-MCast, losing copies
     to part of its group; uniform agreement must still hold. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:3 in
  let d =
    R.deploy ~latency:Util.crisp_latency
      ~faults:
        [
          Harness.Runner.crash
            ~drop:(Runtime.Engine.Lose_to [ 1 ])
            ~at:(Sim_time.of_us 1_050) 0;
        ]
      topo
  in
  ignore
    (R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:(all_groups topo) ());
  let r = R.run_deployment d in
  Util.check_no_violations "safety" (Harness.Checker.check_all r)

let test_determinism () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let make () =
    let rng = Rng.create 9 in
    let w =
      Harness.Workload.generate ~rng ~topology:topo ~n:8
        ~dest:Harness.Workload.To_all_groups
        ~arrival:(`Poisson (Sim_time.of_ms 25))
        ()
    in
    let r = R.run ~seed:2 topo w in
    List.map
      (fun (d : Harness.Run_result.delivery_event) ->
        (d.pid, d.msg.Amcast.Msg.id, Sim_time.to_us d.at))
      r.deliveries
  in
  Alcotest.(check bool) "bit-identical delivery schedule" true
    (make () = make ())

let test_rejects_partial_dest () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let d = R.deploy ~latency:Util.crisp_latency topo in
  ignore (R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0 ] ());
  Alcotest.check_raises "broadcast only"
    (Invalid_argument
       "A2.cast: atomic broadcast requires dest = all groups (use A1 or \
        Via_broadcast for multicast)") (fun () ->
      ignore (R.run_deployment d))

let test_causal_chain_order () =
  (* p3 broadcasts m2 only after delivering m1: every process must deliver
     m1 before m2 (causal order, a derived guarantee of the round
     structure). Chain a few rounds deep. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = R.deploy ~latency:Util.crisp_latency topo in
  ignore (R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:(all_groups topo) ());
  let r1 = R.run_deployment d in
  ignore r1;
  let next_at () =
    Sim_time.add (Runtime.Engine.now (R.engine d)) (Sim_time.of_ms 10)
  in
  ignore (R.cast_at d ~at:(next_at ()) ~origin:3 ~dest:(all_groups topo) ());
  let r2 = R.run_deployment d in
  ignore r2;
  ignore (R.cast_at d ~at:(next_at ()) ~origin:1 ~dest:(all_groups topo) ());
  let r = R.run_deployment d in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  Util.check_no_violations "causal order"
    (Harness.Checker.causal_delivery_order r)

(* The checker's happened-before follows protocol messages as well as
   deliveries, so under load it relates casts that A2 never promised to
   order: a round's bundle exchange links a cast to messages its caster
   has not delivered. Every flag on this run (the verify_bench a2 cell at
   n = 800) must be one of those: different casters, and the later
   message's caster had not A-delivered the earlier one when it cast. *)
let test_causal_flags_outside_guarantee () =
  let topo = Topology.symmetric ~groups:3 ~per_group:3 in
  let workload =
    Harness.Workload.generate ~rng:(Rng.create 807) ~topology:topo ~n:800
      ~dest:Harness.Workload.To_all_groups
      ~arrival:(`Poisson (Sim_time.of_ms 10))
      ()
  in
  let r = R.run ~seed:7 ~latency:Latency.wan_default topo workload in
  let pos = Hashtbl.create 4096 in
  List.iteri
    (fun i -> function
      | Runtime.Trace.Cast { pid; id; _ } -> Hashtbl.replace pos (`Cast, pid, id) i
      | Runtime.Trace.Deliver { pid; id; _ } ->
        Hashtbl.replace pos (`Deliver, pid, id) i
      | _ -> ())
    (Runtime.Trace.entries r.trace);
  let flags = Harness.Checker.causal_delivery_order r in
  Alcotest.(check bool) "the run has flags to classify" true (flags <> []);
  List.iter
    (fun flag ->
      Scanf.sscanf flag "causal order: p%_d delivered m%d.%d before m%d.%d"
        (fun lo ls eo es ->
          let later = Runtime.Msg_id.make ~origin:lo ~seq:ls
          and earlier = Runtime.Msg_id.make ~origin:eo ~seq:es in
          if lo = eo then Alcotest.failf "same-origin flag: %s" flag;
          match Hashtbl.find_opt pos (`Deliver, lo, earlier) with
          | Some d when d < Hashtbl.find pos (`Cast, lo, later) ->
            Alcotest.failf "caster delivered the earlier message first: %s"
              flag
          | _ -> ()))
    flags

let test_heartbeat_fd_mode () =
  (* A2 on the heartbeat detector, with the ballot-0 coordinator of one
     group crashing mid-round. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:3 in
  let config =
    {
      Amcast.Protocol.Config.default with
      fd_mode =
        Amcast.Protocol.Config.Heartbeat
          { period = Sim_time.of_ms 5; timeout = Sim_time.of_ms 30 };
      consensus_timeout = Sim_time.of_ms 80;
    }
  in
  let d =
    R.deploy ~latency:Util.crisp_latency ~config
      ~faults:
        [
          Harness.Runner.crash ~drop:Runtime.Engine.Lose_all_inflight
            ~at:(Sim_time.of_ms 3) 0;
        ]
      topo
  in
  let id =
    R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:1 ~dest:(all_groups topo) ()
  in
  let r = R.run_deployment ~until:(Sim_time.of_sec 3.) d in
  Util.check_no_violations "integrity" (Harness.Checker.uniform_integrity r);
  Util.check_no_violations "prefix order"
    (Harness.Checker.uniform_prefix_order r);
  Alcotest.(check int) "all five survivors deliver" 5
    (List.length (Harness.Run_result.deliveries_of r id))

let test_scale_six_groups () =
  let topo = Topology.symmetric ~groups:6 ~per_group:4 in
  let rng = Rng.create 72 in
  let w =
    Harness.Workload.generate ~rng ~topology:topo ~n:40
      ~dest:Harness.Workload.To_all_groups
      ~arrival:(`Poisson (Sim_time.of_ms 12))
      ()
  in
  let r = R.run ~seed:9 topo w in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  Util.check_no_violations "quiescence" (Harness.Checker.quiescence r);
  Alcotest.(check int) "all delivered" 40 (Harness.Metrics.delivered_count r)

let test_linger_prediction () =
  (* The Linger strategy (Section 5.3's future-work extension) still
     reaches quiescence after finitely many broadcasts, never violates
     safety, and executes more rounds than the paper's rule. *)
  let config =
    {
      Amcast.Protocol.Config.default with
      prediction = Amcast.Protocol.Config.Linger { rounds = 4 };
    }
  in
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let rng = Rng.create 31 in
  let w =
    Harness.Workload.generate ~rng ~topology:topo ~n:8
      ~dest:Harness.Workload.To_all_groups
      ~arrival:(`Poisson (Sim_time.of_ms 80))
      ()
  in
  let d = R.deploy ~latency:Util.crisp_latency ~config topo in
  ignore (R.schedule d w);
  let r = R.run_deployment d in
  Util.check_no_violations "safety" (Harness.Checker.check_all r);
  Util.check_no_violations "still quiescent" (Harness.Checker.quiescence r);
  let lingering_rounds = Amcast.A2.rounds_executed (R.node d 0) in
  (* Same workload with the paper's rule executes fewer rounds. *)
  let d' = R.deploy ~latency:Util.crisp_latency topo in
  ignore (R.schedule d' w);
  ignore (R.run_deployment d');
  let naive_rounds = Amcast.A2.rounds_executed (R.node d' 0) in
  Alcotest.(check bool)
    (Fmt.str "linger runs more rounds (%d > %d)" lingering_rounds
       naive_rounds)
    true
    (lingering_rounds > naive_rounds)

let suites =
  [
    ( "a2",
      [
        Alcotest.test_case "single broadcast" `Quick test_single_broadcast;
        Alcotest.test_case "cold start: degree 2 (Thm 5.2)" `Quick
          test_cold_start_degree_two;
        Alcotest.test_case "warm rounds: degree 1 (Thm 5.1)" `Quick
          test_warm_rounds_degree_one;
        Alcotest.test_case "quiescence (Prop A.9)" `Quick
          test_quiescence_after_finite_broadcasts;
        Alcotest.test_case "restart after quiescence" `Quick
          test_restart_after_quiescence;
        Alcotest.test_case "total order across senders" `Quick
          test_total_order_across_senders;
        Alcotest.test_case "crash in one group" `Quick test_crash_in_one_group;
        Alcotest.test_case "caster crashes after local rmcast" `Quick
          test_caster_crashes_after_local_rmcast;
        Alcotest.test_case "causal chain order" `Quick
          test_causal_chain_order;
        Alcotest.test_case "heartbeat failure detector mode" `Quick
          test_heartbeat_fd_mode;
        Alcotest.test_case "scale: 6 groups x 4" `Slow test_scale_six_groups;
        Alcotest.test_case "linger prediction strategy" `Quick
          test_linger_prediction;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "rejects partial destinations" `Quick
          test_rejects_partial_dest;
        Alcotest.test_case "causal flags outside the guarantee" `Quick
          test_causal_flags_outside_guarantee;
      ] );
  ]
