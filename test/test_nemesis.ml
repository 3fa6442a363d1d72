(* The nemesis fault-plan layer: plan validation and generation, plan
   replay against live deployments, campaigns under seeded plans for every
   protocol (sequential and parallel, bit-identically), FD storms under
   the heartbeat detector, and A2's misprediction -> restart path
   (Theorem 5.2). *)

open Des
open Net
open Runtime
module N = Harness.Nemesis

(* --- The plan type itself. --- *)

let test_make_rejects_unhealed_partition () =
  let bad =
    [
      {
        N.at = Sim_time.of_ms 10;
        action = N.Partition { side_a = [ 0 ]; side_b = [ 1 ] };
      };
    ]
  in
  (match N.make bad with
  | _ -> Alcotest.fail "unhealed partition accepted"
  | exception Invalid_argument _ -> ());
  (* A heal at the same instant is not enough: it could be ordered before
     the partition. *)
  let same_instant =
    bad @ [ { N.at = Sim_time.of_ms 10; action = N.Heal_all } ]
  in
  (match N.make same_instant with
  | _ -> Alcotest.fail "same-instant heal accepted"
  | exception Invalid_argument _ -> ());
  let good = bad @ [ { N.at = Sim_time.of_ms 50; action = N.Heal_all } ] in
  Alcotest.(check int) "healed plan accepted" 2 (List.length (N.steps (N.make good)))

let test_liveness_from_is_last_step_end () =
  let plan =
    N.make
      [
        {
          N.at = Sim_time.of_ms 10;
          action = N.Partition { side_a = [ 0 ]; side_b = [ 1 ] };
        };
        { N.at = Sim_time.of_ms 50; action = N.Heal_all };
        {
          N.at = Sim_time.of_ms 40;
          action =
            N.Latency_spike
              {
                src_group = 0;
                dst_group = 1;
                factor = 4.0;
                duration = Sim_time.of_ms 30;
              };
        };
        { N.at = Sim_time.of_ms 20; action = N.Fd_storm { scale = 0.1 } };
      ]
  in
  (* The spike's window ends at 70ms, after the 50ms heal. *)
  Alcotest.(check int) "liveness from the last step end" 70_000
    (Sim_time.to_us (N.liveness_from plan));
  Alcotest.(check bool) "steps sorted by time" true
    (let ats = List.map (fun s -> Sim_time.to_us s.N.at) (N.steps plan) in
     ats = List.sort Int.compare ats)

let test_generate_deterministic () =
  let topo = Topology.symmetric ~groups:3 ~per_group:3 in
  let plan_of seed =
    Fmt.str "%a" N.pp (N.generate ~rng:(Rng.create seed) ~topology:topo ())
  in
  Alcotest.(check string) "same seed, same plan" (plan_of 7) (plan_of 7);
  Alcotest.(check bool) "different seed, different plan" true
    (plan_of 7 <> plan_of 8);
  let plan = N.generate ~rng:(Rng.create 7) ~topology:topo () in
  Alcotest.(check bool) "non-empty" false (N.is_empty plan);
  Alcotest.(check bool) "ends healed" true
    (match List.rev (N.steps plan) with
    | { N.action = N.Heal_all; _ } :: _ -> true
    | _ -> false)

(* --- Replaying a hand-written plan against a deployment. --- *)

let test_plan_replay_a1 () =
  let module R = Harness.Runner.Make (Amcast.A1) in
  (* Three per group: the plan crashes one process, and consensus needs a
     correct majority in its group to stay live. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:3 in
  let plan =
    N.make
      [
        {
          N.at = Sim_time.of_ms 20;
          action = N.Partition { side_a = [ 0 ]; side_b = [ 1 ] };
        };
        {
          N.at = Sim_time.of_ms 30;
          action =
            N.Latency_spike
              {
                src_group = 0;
                dst_group = 1;
                factor = 6.0;
                duration = Sim_time.of_ms 100;
              };
        };
        {
          N.at = Sim_time.of_ms 60;
          action = N.Crash { pid = 1; drop = Engine.Lose_all_inflight };
        };
        { N.at = Sim_time.of_ms 180; action = N.Heal_all };
      ]
  in
  let d = R.deploy ~latency:Util.crisp_latency ~nemesis:plan topo in
  let id1 = R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0; 1 ] () in
  let id2 = R.cast_at d ~at:(Sim_time.of_ms 25) ~origin:4 ~dest:[ 0; 1 ] () in
  let r = R.run_deployment d in
  Util.check_no_violations "safety and post-heal liveness"
    (Harness.Checker.check_all ~check_quiescence:true
       ~liveness_from:(N.liveness_from plan) r);
  Alcotest.(check bool) "ran past the final heal" true
    (Sim_time.( >= ) r.end_time (N.liveness_from plan));
  (* p1 crashed; the five survivors deliver both messages. *)
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Fmt.str "%a delivered by all survivors" Msg_id.pp id)
        5
        (List.length (Harness.Run_result.deliveries_of r id)))
    [ id1; id2 ]

(* --- Overlay-aware plans: partitions along cut edges. --- *)

(* Severing a hub spoke mid-run, with flexcast actually routing over the
   overlay: the casts in flight across the cut stall, safety holds
   unconditionally, and liveness is owed only after the final heal. *)
let test_hub_cut_partition_flexcast () =
  let module R = Harness.Runner.Make (Amcast.Flexcast) in
  let ov = Overlay.hub ~groups:3 in
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let config =
    { Amcast.Protocol.Config.default with Amcast.Protocol.Config.overlay = Some ov }
  in
  (* (0, 1) is a bridge of the hub: cutting it isolates spoke 1. *)
  let side_a, side_b = Overlay.side_of_cut ov ~cut:(0, 1) in
  Alcotest.(check (list int)) "cut isolates the spoke" [ 1 ] side_b;
  let plan =
    N.make
      [
        { N.at = Sim_time.of_ms 40; action = N.Partition { side_a; side_b } };
        { N.at = Sim_time.of_ms 400; action = N.Heal_all };
      ]
  in
  let d =
    R.deploy ~latency:(Overlay.to_latency ov) ~config ~nemesis:plan topo
  in
  (* One cast before the cut, one from inside the isolated spoke during
     the window, one from the far spoke routed through the hub. *)
  let id1 = R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:2 ~dest:[ 0; 1 ] () in
  let id2 = R.cast_at d ~at:(Sim_time.of_ms 60) ~origin:2 ~dest:[ 1; 2 ] () in
  let id3 = R.cast_at d ~at:(Sim_time.of_ms 80) ~origin:4 ~dest:[ 1; 2 ] () in
  let r = R.run_deployment d in
  Util.check_no_violations "safety always, liveness after the heal"
    (Harness.Checker.check_all ~check_quiescence:true ~overlay:ov
       ~liveness_from:(N.liveness_from plan) r);
  Alcotest.(check bool) "ran past the final heal" true
    (Sim_time.( >= ) r.end_time (N.liveness_from plan));
  List.iter
    (fun (id, expect) ->
      Alcotest.(check int)
        (Fmt.str "%a delivered by every addressee" Msg_id.pp id)
        expect
        (List.length (Harness.Run_result.deliveries_of r id)))
    [ (id1, 4); (id2, 4); (id3, 4) ]

(* The generator sized to an overlay: every partition window must split
   the groups along one of the overlay's bridges — random group splits
   would cut a hub deployment in ways its links never fail. *)
let test_generate_follows_cut_edges () =
  let topo = Topology.symmetric ~groups:4 ~per_group:2 in
  let ov = Overlay.hub ~groups:4 in
  let sides_of_cuts =
    List.map (fun cut -> Overlay.side_of_cut ov ~cut) (Overlay.cut_edges ov)
  in
  for seed = 0 to 9 do
    let plan = N.generate ~rng:(Rng.create seed) ~topology:topo ~overlay:ov () in
    List.iter
      (fun s ->
        match s.N.action with
        | N.Partition { side_a; side_b } ->
          if not (List.mem (side_a, side_b) sides_of_cuts) then
            Alcotest.failf
              "seed %d: partition {%s | %s} is not a cut of the hub" seed
              (String.concat "," (List.map string_of_int side_a))
              (String.concat "," (List.map string_of_int side_b))
        | _ -> ())
      (N.steps plan)
  done;
  (* Bridgeless overlays keep the random splits but still validate. *)
  let ring_plan =
    N.generate ~rng:(Rng.create 3) ~topology:topo
      ~overlay:(Overlay.ring ~groups:4) ()
  in
  Alcotest.(check bool) "ring plan generated" false (N.is_empty ring_plan);
  (* A mismatched overlay is a configuration bug, not a plan. *)
  match
    N.generate ~rng:(Rng.create 0) ~topology:topo
      ~overlay:(Overlay.hub ~groups:5) ()
  with
  | _ -> Alcotest.fail "group-count mismatch accepted"
  | exception Invalid_argument _ -> ()

(* --- Campaigns under generated plans, every soak target (the quiescent,
   uniform catalogue entries). --- *)

let campaign_case (e : Amcast.Catalogue.entry) =
  Alcotest.test_case e.name `Quick (fun () ->
      let summary =
        Harness.Campaign.run_sharded e.proto ~broadcast_only:e.broadcast_only
          ~with_crashes:e.crash_tolerant ~with_nemesis:true
          ~check_quiescence:true ~domains:1 ~seed:1234 ~runs:8 ()
      in
      Alcotest.(check int)
        (Fmt.str "%s: all nemesis runs clean" e.name)
        summary.runs summary.clean;
      Alcotest.(check bool) "non-trivial" true (summary.delivered_total > 0))

(* Campaigns over an overlay: the nemesis plans partition along the hub's
   bridges, flexcast routes over it, and the fan-out over four domains
   stays bit-identical to the one-domain run. No crash injection:
   flexcast is Skeen-style, deliberately not fault-tolerant. *)
let test_overlay_campaign_parallel_identical () =
  let campaign domains =
    Harness.Campaign.run_sharded
      (module Amcast.Flexcast)
      ~overlay_kind:Overlay.Hub ~with_crashes:false ~with_nemesis:true
      ~check_quiescence:true ~domains ~seed:77 ~runs:8 ()
  in
  let seq = campaign 1 and par = campaign 4 in
  Alcotest.(check int) "all overlay nemesis runs clean" seq.runs seq.clean;
  Alcotest.(check bool) "non-trivial" true (seq.delivered_total > 0);
  Alcotest.(check bool) "overlay summaries bit-identical" true (par = seq)

let test_campaign_parallel_identical () =
  let campaign domains =
    Harness.Campaign.run_sharded
      (module Amcast.A1)
      ~with_nemesis:true ~domains ~seed:99 ~runs:10 ()
  in
  let seq = campaign 1 and par = campaign 4 in
  Alcotest.(check bool) "nemesis summaries bit-identical" true (par = seq);
  Alcotest.(check bool) "non-trivial campaign" true (seq.total_steps > 0)

(* --- FD storms under the heartbeat detector. --- *)

(* A1 on heartbeat failure detection with an FD-storm plan: the storm
   shrinks every detector's timeouts mid-run, forcing false suspicions
   (and so spurious coordinator changes in consensus); the run must stay
   safe and still deliver everywhere. Heartbeat deployments never drain
   (the detector keeps probing), so the run is horizon-bounded and
   liveness is left to the delivery-count assertion. *)
let storm_case (e : Amcast.Catalogue.entry) =
  Alcotest.test_case (e.name ^ " under fd storm") `Quick (fun () ->
      let module P = (val e.proto) in
      let module R = Harness.Runner.Make (P) in
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
      let plan =
        N.make
          [
            { N.at = Sim_time.of_ms 10; action = N.Fd_storm { scale = 0.05 } };
            { N.at = Sim_time.of_ms 60; action = N.Fd_storm { scale = 0.05 } };
          ]
      in
      let d =
        R.deploy ~latency:Util.crisp_latency ~config ~nemesis:plan topo
      in
      let id =
        R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:1
          ~dest:(Topology.all_groups topo) ()
      in
      let r = R.run_deployment ~until:(Sim_time.of_sec 3.) d in
      Util.check_no_violations "integrity under fd storm"
        (Harness.Checker.uniform_integrity r);
      Util.check_no_violations "prefix order under fd storm"
        (Harness.Checker.uniform_prefix_order r);
      Alcotest.(check int) "all six deliver despite the storm" 6
        (List.length (Harness.Run_result.deliveries_of r id)))

(* --- A2's misprediction -> restart path (Theorem 5.2). --- *)

(* Drive A2 to quiescence (the Stop_when_idle prediction: an empty round
   does not raise the barrier, so rounds stop), then prove the prediction
   wrong with a fresh broadcast — across a partition window for good
   measure. The restart costs exactly one extra inter-group delay: the
   late message is delivered at latency degree 2, not A2's proactive
   degree 1. *)
let test_a2_misprediction_restart () =
  let module R = Harness.Runner.Make (Amcast.A2) in
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = R.deploy ~latency:Util.crisp_latency topo in
  let all = Topology.all_groups topo in
  let id1 = R.cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:all () in
  let r1 = R.run_deployment d in
  Alcotest.(check bool) "first run drained" true r1.drained;
  Alcotest.(check int) "warm-up delivered everywhere" 4
    (List.length (Harness.Run_result.deliveries_of r1 id1));
  Alcotest.(check int) "cold start: degree 2" 2 (Util.degree_of r1 id1);
  (* Quiescent: every process predicted no more broadcasts — its barrier
     is behind the round it would execute next. *)
  List.iter
    (fun pid ->
      let node = R.node d pid in
      Alcotest.(check bool)
        (Fmt.str "p%d stopped executing rounds" pid)
        true
        (Amcast.A2.barrier node < Amcast.A2.round node))
    (Topology.all_pids topo);
  let rounds_before = Amcast.A2.rounds_executed (R.node d 0) in
  (* The late broadcast lands inside a partition window, so the restart
     also has to ride out a cut; apply a plan to the live deployment. *)
  let base = Sim_time.to_us r1.end_time in
  let at_us us = Sim_time.of_us (base + us) in
  let plan =
    N.make
      [
        {
          N.at = at_us 105_000;
          action = N.Partition { side_a = [ 0 ]; side_b = [ 1 ] };
        };
        { N.at = at_us 200_000; action = N.Heal_all };
      ]
  in
  N.apply plan (R.engine d);
  let id2 = R.cast_at d ~at:(at_us 100_000) ~origin:2 ~dest:all () in
  let r2 = R.run_deployment d in
  Util.check_no_violations "safety across restart"
    (Harness.Checker.check_all ~check_quiescence:true
       ~liveness_from:(N.liveness_from plan) r2);
  Alcotest.(check int) "late broadcast delivered everywhere" 4
    (List.length (Harness.Run_result.deliveries_of r2 id2));
  Alcotest.(check bool) "rounds restarted" true
    (Amcast.A2.rounds_executed (R.node d 0) > rounds_before);
  Alcotest.(check int) "misprediction costs exactly one extra hop: degree 2"
    2 (Util.degree_of r2 id2)

(* Scalable livelock regression: amcast_soak --nemesis on --conflict key
   --topology hub, seed 7, scenario 1 (three groups of three, ten keyed
   casts, no jitter). The cross-group reference-pattern Paxos of one
   message had its remote promises arrive exactly one hub round trip
   (200 ms) after each Prepare, which is the decision timeout; the retry
   timer, armed first, popped first and opened a higher ballot, so the
   promises for the current one were always discarded. It ran without end
   (a million events in under three seconds of wall time, still growing);
   it now decides, and the run drains well inside the cap. The scenario is
   deployed by hand, as [Campaign.run_one] would, so that the step cap is
   this test's own. *)
let test_scalable_hub_livelock_regression () =
  let module R = Harness.Runner.Make (Amcast.Scalable) in
  let s =
    Harness.Campaign.scenario_at ~with_crashes:false ~with_nemesis:true
      ~seed:7 1
  in
  let groups = s.groups in
  let topo = Topology.symmetric ~groups ~per_group:s.per_group in
  let ov = Overlay.of_kind Overlay.Hub ~groups in
  let workload =
    Harness.Workload.generate
      ~rng:(Des.Rng.create (s.seed + 1))
      ~topology:topo ~n:s.n_msgs
      ~dest:(Harness.Workload.Random_groups groups)
      ~arrival:(`Poisson (Des.Sim_time.of_ms 25))
      ~conflict:(Harness.Workload.conflict_spec 0.5)
      ()
  in
  let plan =
    N.generate
      ~rng:(Des.Rng.create (s.seed + 7919))
      ~topology:topo ~with_crashes:false ~overlay:ov ()
  in
  let d =
    R.deploy ~seed:s.seed
      ~latency:(Overlay.to_latency ~jitter:Des.Sim_time.zero ov)
      ~config:{ Amcast.Protocol.Config.default with overlay = Some ov }
      ~record_trace:true ~nemesis:plan topo
  in
  ignore (R.schedule d workload);
  match R.run_deployment ~max_steps:200_000 d with
  | exception Failure _ -> Alcotest.fail "scalable livelocked on the hub"
  | r ->
    Alcotest.(check bool) "drained" true r.Harness.Run_result.drained;
    Util.check_no_violations "scalable hub regression scenario"
      (Harness.Checker.check_all ~expect_genuine:true ~check_quiescence:true
         ~liveness_from:(N.liveness_from plan) ~overlay:ov r)

let suites =
  [
    ( "nemesis",
      [
        Alcotest.test_case "make rejects unhealed partitions" `Quick
          test_make_rejects_unhealed_partition;
        Alcotest.test_case "liveness_from is the last step end" `Quick
          test_liveness_from_is_last_step_end;
        Alcotest.test_case "generate is seed-deterministic" `Quick
          test_generate_deterministic;
        Alcotest.test_case "plan replay on a1" `Quick test_plan_replay_a1;
        Alcotest.test_case "hub cut-edge partition on flexcast" `Quick
          test_hub_cut_partition_flexcast;
        Alcotest.test_case "generated plans follow cut edges" `Quick
          test_generate_follows_cut_edges;
        Alcotest.test_case "parallel campaign bit-identical" `Slow
          test_campaign_parallel_identical;
        Alcotest.test_case "overlay campaign bit-identical" `Slow
          test_overlay_campaign_parallel_identical;
        storm_case (Util.entry "a1");
        storm_case (Util.entry "a2");
        Alcotest.test_case "a2 misprediction restart (Thm 5.2)" `Quick
          test_a2_misprediction_restart;
        Alcotest.test_case "scalable drains on the hub (livelock regression)"
          `Quick test_scalable_hub_livelock_regression;
      ] );
    ("nemesis-campaign", List.map campaign_case Amcast.Catalogue.soak_targets);
  ]
