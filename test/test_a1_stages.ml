(* The A1 stage kernel and the two protocols built on it.

   Golden pin: fixed-seed jittered streams of ~40 casts through a1 (under
   the default, throughput and Fritzke configurations and the
   heartbeat detector) and whitebox, plus crash streams that kill a
   group's leader mid-run, each reduced to a per-pid delivery digest and
   per-tag send counts. The literals were captured from the separate a1
   and whitebox implementations that preceded the shared kernel; the
   whitebox-vs-a1 verdict differential compares kernel against kernel and
   cannot see a behaviour change they share. *)

open Des
open Net

let stream topo =
  Harness.Workload.generate ~rng:(Rng.create 23) ~topology:topo ~n:40
    ~dest:(Harness.Workload.Random_groups (Topology.n_groups topo))
    ~arrival:(`Poisson (Sim_time.of_ms 8))
    ()

module RA1 = Harness.Runner.Make (Amcast.A1)
module RFz = Harness.Runner.Make (Amcast.Fritzke)
module RWb = Harness.Runner.Make (Amcast.Whitebox)

let heartbeat =
  {
    Amcast.Protocol.Config.default with
    fd_mode =
      Amcast.Protocol.Config.Heartbeat
        { period = Sim_time.of_ms 20; timeout = Sim_time.of_ms 100 };
  }

(* Three groups of three, so a group keeps a majority after the crash of
   its leader (pid 3, the first member of group 1) in the middle of the
   stream; whitebox's survivors re-send the logged stamps. *)
let crash_topo = Topology.symmetric ~groups:3 ~per_group:3
let crash_at ms = [ Harness.Runner.crash ~at:(Sim_time.of_ms ms) 3 ]
let crash_faults = crash_at 150

let golden_runs () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let a1 name config =
    ( name,
      RA1.run ~seed:7 ~latency:Latency.wan_default ~config topo (stream topo) )
  in
  let wb name config =
    ( name,
      RWb.run ~seed:7 ~latency:Latency.wan_default ~config topo (stream topo) )
  in
  [
    a1 "a1 default" Amcast.Protocol.Config.default;
    a1 "a1 throughput" Amcast.Protocol.Config.throughput;
    ( "fritzke",
      RFz.run ~seed:7 ~latency:Latency.wan_default topo (stream topo) );
    ( "a1 heartbeat",
      RA1.run ~seed:7 ~latency:Latency.wan_default ~config:heartbeat
        ~until:(Sim_time.of_sec 3.) topo (stream topo) );
    wb "whitebox default" Amcast.Protocol.Config.default;
    wb "whitebox no skip_max_group"
      { Amcast.Protocol.Config.default with skip_max_group = false };
    ( "a1 crash",
      RA1.run ~seed:7 ~latency:Latency.wan_default ~faults:crash_faults
        crash_topo (stream crash_topo) );
    ( "whitebox crash",
      RWb.run ~seed:7 ~latency:Latency.wan_default ~faults:crash_faults
        crash_topo (stream crash_topo) );
    (* Crash notifications fire in subscription order, and this run's
       digests change if whitebox subscribes after the reliable multicast
       instead of before it. *)
    ( "whitebox crash, subscription order",
      RWb.run ~seed:4 ~latency:Latency.wan_default ~faults:(crash_at 100)
        crash_topo (stream crash_topo) );
  ]

let golden : (string * (int list * (string * int) list)) list =
  [
    ( "a1 default",
      ( [
          3978994681919395116; 3978994681919395116; 1123772096768377752;
          1123772096768377752; 576343404781096500; 576343404781096500
        ],
        [
          ("a1.ts", 400); ("cons.accept", 228); ("cons.accepted", 228);
          ("cons.decide", 250); ("cons.suggest", 110); ("rm.data", 135)
        ] ) );
    ( "a1 throughput",
      ( [
          3112283154366113644; 3112283154366113644; 1123772096768377752;
          1123772096768377752; 2498676456928211140; 2498676456928211140
        ],
        [
          ("a1.tsb", 400); ("cons.accept", 250); ("cons.accepted", 250);
          ("cons.decide", 273); ("cons.suggest", 122); ("rm.data", 135)
        ] ) );
    ( "fritzke",
      ( [
          2443189186714177324; 2443189186714177324; 3405331548414253416;
          3405331548414253416; 209939322702534756; 209939322702534756
        ],
        [
          ("a1.ts", 400); ("cons.accept", 298); ("cons.accepted", 298);
          ("cons.decide", 338); ("cons.suggest", 149); ("rm.data", 135)
        ] ) );
    ( "a1 heartbeat",
      ( [
          2692970857548332228; 2692970857548332228; 1123772096768377752;
          1123772096768377752; 916368349914176980; 916368349914176980
        ],
        [
          ("a1.ts", 400); ("cons.accept", 224); ("cons.accepted", 224);
          ("cons.decide", 250); ("cons.suggest", 110); ("fd.ping", 906);
          ("rm.data", 135)
        ] ) );
    ( "whitebox default",
      ( [
          1408586576383589620; 1408586576383589620; 3095121490034246128;
          3095121490034246128; 2908360404036282076; 2908360404036282076
        ],
        [
          ("cons.accept", 284); ("cons.accepted", 284); ("cons.decide", 314);
          ("cons.suggest", 86); ("rm.data", 135); ("whitebox.stamp", 100)
        ] ) );
    ( "whitebox no skip_max_group",
      ( [
          1408586576383589620; 1408586576383589620; 3095121490034246128;
          3095121490034246128; 2908360404036282076; 2908360404036282076
        ],
        [
          ("cons.accept", 284); ("cons.accepted", 284); ("cons.decide", 314);
          ("cons.suggest", 86); ("rm.data", 135); ("whitebox.stamp", 100)
        ] ) );
    ( "a1 crash",
      ( [
          3718607797206549596; 3718607797206549596; 3718607797206549596;
          18691697679587; 2183443418797456971; 2183443418797456971;
          1242440848578018688; 1242440848578018688; 1242440848578018688
        ],
        [
          ("a1.ts", 753); ("cons.accept", 297); ("cons.accepted", 278);
          ("cons.decide", 342); ("cons.lease_prepare", 2);
          ("cons.lease_promise", 1); ("cons.suggest", 179); ("rm.data", 285)
        ] ) );
    ( "whitebox crash",
      ( [
          2407743926171707916; 2407743926171707916; 2407743926171707916;
          18691697679587; 3561118479555849371; 3561118479555849371;
          3309382917481720; 3309382917481720; 3309382917481720
        ],
        [
          ("cons.accept", 351); ("cons.accepted", 335); ("cons.decide", 392);
          ("cons.lease_prepare", 2); ("cons.lease_promise", 1);
          ("cons.suggest", 146); ("rm.data", 285); ("whitebox.stamp", 124)
        ] ) );
    ( "whitebox crash, subscription order",
      ( [
          3461003727472220100; 3461003727472220100; 3461003727472220100;
          18691697679587; 1810229466624917912; 1810229466624917912;
          2206363042940834382; 2206363042940834382; 2206363042940834382
        ],
        [
          ("cons.accept", 363); ("cons.accepted", 338); ("cons.decide", 405);
          ("cons.lease_prepare", 2); ("cons.lease_promise", 1);
          ("cons.suggest", 144); ("rm.data", 249); ("whitebox.stamp", 112)
        ] ) );
  ]

let test_golden () =
  List.iter
    (fun (name, r) ->
      Test_stamp_order.check_golden golden name (Harness.Checker.check_all r) r)
    (golden_runs ())

(* The crash row above is only a resend pin if the leader change really
   made survivors re-send logged stamps. *)
let test_crash_row_resends () =
  let d =
    RWb.deploy ~seed:7 ~latency:Latency.wan_default ~faults:crash_faults
      crash_topo
  in
  ignore (RWb.schedule d (stream crash_topo));
  ignore (RWb.run_deployment d);
  let resent =
    List.fold_left
      (fun n pid ->
        n
        + Option.value ~default:0
            (List.assoc_opt "stamps_resent"
               (Amcast.Whitebox.stats (RWb.node d pid))))
      0
      (Topology.all_pids crash_topo)
  in
  Alcotest.(check bool) "stamps re-sent after the leader crash" true
    (resent > 0)

(* The tie case of the s1 skip (line 33-40): on a symmetric 2x2 topology
   under the crisp latencies, one cast from pid 0 to both groups makes each
   group propose the same timestamp. Our proposal equal to the maximum is
   enough to skip to s3, so every process runs one consensus instance, not
   two. Degree and inter-group counts are the same either way, so Figure 1
   does not see this. *)
let test_tie_skips_second_consensus () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = RA1.deploy ~seed:1 ~latency:Harness.Figure1.crisp topo in
  ignore
    (RA1.schedule d
       (Harness.Workload.single ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0; 1 ]
          ()));
  let r = RA1.run_deployment d in
  Util.check_no_violations "tie run clean" (Harness.Checker.check_all r);
  List.iter
    (fun pid ->
      Alcotest.(check int)
        (Printf.sprintf "p%d consensus instances" pid)
        1
        (Amcast.A1.consensus_instances_executed (RA1.node d pid)))
    (Topology.all_pids topo)

let suites =
  [
    ( "a1-stages",
      [
        Alcotest.test_case "golden pin: a1, fritzke, whitebox" `Quick
          test_golden;
        Alcotest.test_case "crash row re-sends stamps" `Quick
          test_crash_row_resends;
        Alcotest.test_case "tie case skips the second consensus" `Quick
          test_tie_skips_second_consensus;
      ] );
  ]
