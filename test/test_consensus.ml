open Des
open Net
open Runtime

(* Harness for a consensus-only deployment: every process of one group runs
   a Paxos endpoint over string values. *)
type deployment = {
  engine : string Consensus.Paxos.msg Engine.t;
  endpoints : (string, string Consensus.Paxos.msg) Consensus.Paxos.t array;
  decisions : (Topology.pid * int * string) list ref; (* pid, instance, v *)
}

let deploy ?(seed = 0) ?(latency = Util.crisp_latency)
    ?(oracle_delay = Sim_time.of_ms 10) ?(timeout = Sim_time.of_ms 200)
    ?(on_wrap = fun _ _ -> ()) ?participants topology =
  let engine =
    Engine.create ~seed ~latency ~tag:Consensus.Paxos.tag topology
  in
  let decisions = ref [] in
  let n = Topology.n_processes topology in
  let endpoints = Array.make n None in
  List.iter
    (fun pid ->
      let ep =
        Engine.spawn engine pid (fun services ->
            let detector = Fd.Detector.oracle ~delay:oracle_delay services in
            let ep =
              Consensus.Paxos.create ~services
                ~wrap:(fun m ->
                  on_wrap pid m;
                  m)
                ~participants:
                  (match participants with
                  | Some ps -> ps
                  | None ->
                    Topology.members topology (Topology.group_of topology pid))
                ~detector ~timeout
                ~on_decide:(fun ~instance v ->
                  decisions := (pid, instance, v) :: !decisions)
                ()
            in
            ( ep,
              {
                Engine.on_receive =
                  (fun ~src m -> Consensus.Paxos.handle ep ~src m);
              } ))
      in
      endpoints.(pid) <- Some ep)
    (Topology.all_pids topology);
  {
    engine;
    endpoints = Array.map Option.get endpoints;
    decisions;
  }

let propose_at d ~at ~pid ~instance v =
  Engine.at d.engine at (fun () ->
      Consensus.Paxos.propose d.endpoints.(pid) ~instance v)

let decisions_of d ~instance =
  List.filter_map
    (fun (pid, i, v) -> if i = instance then Some (pid, v) else None)
    !(d.decisions)
  |> List.sort compare

let test_all_decide_same () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let d = deploy topo in
  List.iter
    (fun pid ->
      propose_at d ~at:(Sim_time.of_ms 1) ~pid ~instance:1
        (Fmt.str "v%d" pid))
    [ 0; 1; 2 ];
  Engine.run d.engine;
  match decisions_of d ~instance:1 with
  | [ (0, a); (1, b); (2, c) ] ->
    Alcotest.(check string) "agreement 0-1" a b;
    Alcotest.(check string) "agreement 1-2" b c;
    Alcotest.(check bool) "integrity" true (List.mem a [ "v0"; "v1"; "v2" ])
  | ds -> Alcotest.failf "expected 3 decisions, got %d" (List.length ds)

let test_single_proposer () =
  let topo = Topology.symmetric ~groups:1 ~per_group:5 in
  let d = deploy topo in
  propose_at d ~at:(Sim_time.of_ms 1) ~pid:3 ~instance:1 "only";
  Engine.run d.engine;
  let ds = decisions_of d ~instance:1 in
  Alcotest.(check int) "all five decide" 5 (List.length ds);
  List.iter (fun (_, v) -> Alcotest.(check string) "value" "only" v) ds

let test_multiple_instances () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let d = deploy topo in
  for i = 1 to 10 do
    List.iter
      (fun pid ->
        propose_at d ~at:(Sim_time.of_ms i) ~pid ~instance:i
          (Fmt.str "i%d-p%d" i pid))
      [ 0; 1; 2 ]
  done;
  Engine.run d.engine;
  for i = 1 to 10 do
    match decisions_of d ~instance:i with
    | (_, v0) :: rest ->
      List.iter (fun (_, v) -> Alcotest.(check string) "agree" v0 v) rest;
      Alcotest.(check int) "three deciders" 2 (List.length rest)
    | [] -> Alcotest.failf "instance %d undecided" i
  done

let test_coordinator_crash () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let d = deploy ~timeout:(Sim_time.of_ms 50) topo in
  (* p0 (the ballot-0 coordinator) crashes before anyone proposes; p1 must
     take over after detection. *)
  Engine.schedule_crash d.engine ~at:(Sim_time.of_ms 1) 0;
  propose_at d ~at:(Sim_time.of_ms 5) ~pid:1 ~instance:1 "survivor";
  propose_at d ~at:(Sim_time.of_ms 5) ~pid:2 ~instance:1 "other";
  Engine.run d.engine;
  let ds = decisions_of d ~instance:1 in
  Alcotest.(check int) "both survivors decide" 2 (List.length ds);
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "decided a proposed value" true
        (List.mem v [ "survivor"; "other" ]))
    ds

let test_coordinator_crash_mid_instance () =
  let topo = Topology.symmetric ~groups:1 ~per_group:5 in
  let d = deploy ~timeout:(Sim_time.of_ms 50) topo in
  List.iter
    (fun pid ->
      propose_at d ~at:(Sim_time.of_ms 1) ~pid ~instance:1
        (Fmt.str "v%d" pid))
    [ 0; 1; 2; 3; 4 ];
  (* Crash the coordinator while its Accepts may be in flight, losing them. *)
  Engine.schedule_crash ~drop:Engine.Lose_all_inflight d.engine
    ~at:(Sim_time.of_us 1_500) 0;
  Engine.run d.engine;
  let ds = decisions_of d ~instance:1 in
  Alcotest.(check int) "four survivors decide" 4 (List.length ds);
  match ds with
  | (_, v0) :: rest ->
    List.iter (fun (_, v) -> Alcotest.(check string) "agree" v0 v) rest
  | [] -> Alcotest.fail "no decisions"

let test_uniformity_decider_crashes () =
  (* A process decides then crashes; survivors must reach the same
     decision (uniform agreement). *)
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let d = deploy ~timeout:(Sim_time.of_ms 50) topo in
  List.iter
    (fun pid ->
      propose_at d ~at:(Sim_time.of_ms 1) ~pid ~instance:1 (Fmt.str "v%d" pid))
    [ 0; 1; 2 ];
  (* Run until the first decision lands, then crash that decider. *)
  Engine.run ~until:(Sim_time.of_ms 4) d.engine;
  (match !(d.decisions) with
  | (pid, 1, _) :: _ ->
    Engine.schedule_crash ~drop:Engine.Lose_all_inflight d.engine
      ~at:(Sim_time.add (Engine.now d.engine) (Sim_time.of_us 1)) pid
  | _ -> () (* nobody decided yet: nothing to crash, the test still checks agreement *));
  Engine.run d.engine;
  let ds = decisions_of d ~instance:1 in
  match ds with
  | [] -> Alcotest.fail "nobody decided"
  | (_, v0) :: rest ->
    List.iter (fun (_, v) -> Alcotest.(check string) "agree" v0 v) rest

let test_halts () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let d = deploy topo in
  List.iter
    (fun pid ->
      propose_at d ~at:(Sim_time.of_ms 1) ~pid ~instance:1 "v")
    [ 0; 1; 2 ];
  (* Engine.run returning (without horizon) is quiescence: consensus must
     cancel its timers and stop sending. *)
  Engine.run d.engine;
  Alcotest.(check int) "event queue drained" 0
    (Scheduler.pending (Engine.scheduler d.engine))

let test_no_proposal_no_traffic () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let d = deploy topo in
  Engine.run d.engine;
  Alcotest.(check int) "silent without proposals" 0
    (Network.sent_total (Engine.network d.engine))

(* When the leader is suspected, a non-leader re-routes its pending inputs
   to the new leader in ascending instance order. p0 leads and crashes
   before anyone proposes; p2 proposes five instances out of order, and
   its Suggests go to the dead p0. Once p2 suspects p0, p1 leads and p2
   must re-send every Suggest, lowest instance first. *)
let test_reroute_in_instance_order () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let suggests = ref [] in
  let d =
    deploy
      ~on_wrap:(fun pid m ->
        if pid = 2 && Consensus.Paxos.tag m = "cons.suggest" then
          suggests := Fmt.str "%a" Consensus.Paxos.pp_msg m :: !suggests)
      topo
  in
  Engine.schedule_crash d.engine ~at:(Sim_time.of_us 500) 0;
  let instances = [ 9; 2; 6; 4; 11 ] in
  List.iter
    (fun i ->
      propose_at d ~at:(Sim_time.of_ms 1) ~pid:2 ~instance:i
        (Fmt.str "v%d" i))
    instances;
  Engine.run d.engine;
  let render = List.map (Fmt.str "suggest(i%d)") in
  Alcotest.(check (list string))
    "first to p0 in proposal order, then to p1 in instance order"
    (render instances @ render (List.sort Int.compare instances))
    (List.rev !suggests);
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Fmt.str "instance %d decided by both survivors" i)
        2
        (List.length (decisions_of d ~instance:i)))
    instances

(* A lease promise must report what the promiser accepted even for an
   instance it has decided. Five one-process groups, so that links can be
   held group by group, every link 1 ms, one Paxos over all five. p0
   leads ballot 0 and gets "v" accepted by p0, p2 and p3 (chosen) while
   its Accept to p1 and p4 is held; it decides and crashes with its
   Decide reaching only p2. p1 takes over with a lease: the promises of
   p2 (decided) and p4 grant it, and p3's, which carries v, is held past
   the grant. A promise that skips decided instances lets p1 push its
   own "w", which p1, p3 and p4 accept while p2's Decide reply is held:
   p1, p3 and p4 decide w, p0 and p2 v. *)
let test_lease_promise_reports_decided () =
  let topo = Topology.make ~sizes:[ 1; 1; 1; 1; 1 ] in
  let ms1 = Sim_time.of_ms 1 in
  let d =
    deploy
      ~latency:(Latency.uniform ~intra:ms1 ~inter:ms1 ())
      ~timeout:(Sim_time.of_ms 60) ~participants:(Topology.all_pids topo)
      topo
  in
  let hold ~src ~dst until =
    Network.hold (Engine.network d.engine) ~src_group:src ~dst_group:dst
      ~until
  in
  hold ~src:0 ~dst:1 (Sim_time.of_ms 1_000);
  hold ~src:0 ~dst:4 (Sim_time.of_ms 1_000);
  hold ~src:3 ~dst:1 (Sim_time.of_us 15_500);
  propose_at d ~at:ms1 ~pid:0 ~instance:1 "v";
  propose_at d ~at:ms1 ~pid:1 ~instance:1 "w";
  Engine.schedule_crash ~drop:(Engine.Lose_to [ 1; 3; 4 ]) d.engine
    ~at:(Sim_time.of_us 3_100) 0;
  Engine.at d.engine (Sim_time.of_us 15_200) (fun () ->
      hold ~src:2 ~dst:1 (Sim_time.of_ms 40));
  Engine.run d.engine;
  Alcotest.(check (list (pair int string)))
    "every process decides v"
    (List.map (fun p -> (p, "v")) (Topology.all_pids topo))
    (decisions_of d ~instance:1)

let suites =
  [
    ( "consensus",
      [
        Alcotest.test_case "all propose, all decide same" `Quick
          test_all_decide_same;
        Alcotest.test_case "single proposer" `Quick test_single_proposer;
        Alcotest.test_case "ten instances" `Quick test_multiple_instances;
        Alcotest.test_case "coordinator crash before" `Quick
          test_coordinator_crash;
        Alcotest.test_case "coordinator crash mid-instance" `Quick
          test_coordinator_crash_mid_instance;
        Alcotest.test_case "decider crashes (uniformity)" `Quick
          test_uniformity_decider_crashes;
        Alcotest.test_case "halts after decision" `Quick test_halts;
        Alcotest.test_case "no proposals, no messages" `Quick
          test_no_proposal_no_traffic;
        Alcotest.test_case "re-routed Suggests in instance order" `Quick
          test_reroute_in_instance_order;
        Alcotest.test_case "lease promise reports decided instances" `Quick
          test_lease_promise_reports_decided;
      ] );
  ]

(* Consensus driven by the *message-based* heartbeat failure detector
   instead of the oracle: the ballot-0 coordinator crashes, its heartbeats
   stop, the survivors suspect it and rotate to a new coordinator —
   end-to-end, with no ground-truth access on the consensus path. *)
type hb_wire =
  | Hb of Fd.Heartbeat.msg
  | Px of string Consensus.Paxos.msg

let test_heartbeat_driven_consensus () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let engine =
    Engine.create ~latency:Util.crisp_latency
      ~tag:(function Hb _ -> "hb" | Px m -> Consensus.Paxos.tag m)
      topo
  in
  let decisions = ref [] in
  let parts = Topology.members topo 0 in
  let endpoints = Hashtbl.create 3 in
  let heartbeats = Hashtbl.create 3 in
  List.iter
    (fun pid ->
      ignore
        (Engine.spawn engine pid (fun services ->
             let hb =
               Fd.Heartbeat.create ~services
                 ~wrap:(fun m -> Hb m)
                 ~monitored:parts ~period:(Sim_time.of_ms 5)
                 ~timeout:(Sim_time.of_ms 25) ()
             in
             let ep =
               Consensus.Paxos.create ~services
                 ~wrap:(fun m -> Px m)
                 ~participants:parts
                 ~detector:(Fd.Heartbeat.detector hb)
                 ~timeout:(Sim_time.of_ms 60)
                 ~on_decide:(fun ~instance v ->
                   decisions := (pid, instance, v) :: !decisions)
                 ()
             in
             Hashtbl.replace endpoints pid ep;
             Hashtbl.replace heartbeats pid hb;
             ( (),
               {
                 Engine.on_receive =
                   (fun ~src w ->
                     match w with
                     | Hb m -> Fd.Heartbeat.handle hb ~src m
                     | Px m -> Consensus.Paxos.handle ep ~src m);
               } ))))
    parts;
  (* The ballot-0 coordinator dies before anyone proposes. *)
  Engine.schedule_crash ~drop:Engine.Lose_all_inflight engine
    ~at:(Sim_time.of_ms 1) 0;
  List.iter
    (fun pid ->
      Engine.at engine (Sim_time.of_ms 10) (fun () ->
          Consensus.Paxos.propose (Hashtbl.find endpoints pid) ~instance:1
            (Fmt.str "v%d" pid)))
    [ 1; 2 ];
  (* Heartbeats never stop, so run under a horizon. *)
  Engine.run ~until:(Sim_time.of_sec 2.) engine;
  let ds =
    List.filter_map
      (fun (pid, i, v) -> if i = 1 then Some (pid, v) else None)
      !decisions
    |> List.sort compare
  in
  (match ds with
  | [ (1, a); (2, b) ] ->
    Alcotest.(check string) "survivors agree" a b;
    Alcotest.(check bool) "proposed value" true (List.mem a [ "v1"; "v2" ])
  | _ -> Alcotest.failf "expected 2 decisions, got %d" (List.length ds));
  Hashtbl.iter (fun _ hb -> Fd.Heartbeat.stop hb) heartbeats

let suites =
  suites
  @ [
      ( "consensus-heartbeat",
        [
          Alcotest.test_case "heartbeat-driven rotation" `Quick
            test_heartbeat_driven_consensus;
        ] );
    ]

(* Golden pin for the recovery paths: coordinator crashes mid-instance,
   an FD storm that forces false suspicions and lease re-acquisition, and
   promises that must carry values accepted under an earlier ballot. Each
   cell runs one 5-process group under coordinator-only or all-to-all
   routing, on the oracle or the heartbeat detector, and is
   reduced to per-tag consensus send counts, the number of received
   [Promise]/[Lease_promise] messages that carried accepted state, every
   decided (pid, instance, value) and the executed event count. The
   steady-state benchmarks never reach these paths, so this is where a
   change to the instance state would show. *)
type golden_wire = GHb of Fd.Heartbeat.msg | GPx of string Consensus.Paxos.msg

type detector_kind = Oracle | Heartbeats

type golden_cell = {
  g_all_to_all : bool;
  g_detector : detector_kind;
  g_setup :
    golden_wire Engine.t ->
    (string, golden_wire) Consensus.Paxos.t array ->
    unit;
}

(* A Promise carrying [acc@b], or a Lease_promise with a non-empty
   accepted list. *)
let carries_accepted m =
  let s = Fmt.str "%a" Consensus.Paxos.pp_msg m in
  Util.contains s "acc@"
  || (Util.contains s "lease_promise" && not (Util.contains s ",0 inst"))

let golden_run cell =
  let per_group = 5 in
  let topo = Topology.symmetric ~groups:1 ~per_group in
  let engine =
    Engine.create ~seed:3 ~latency:Util.crisp_latency
      ~tag:(function GHb _ -> "fd.ping" | GPx m -> Consensus.Paxos.tag m)
      topo
  in
  let decisions = ref [] in
  let carried = ref 0 in
  let parts = Topology.members topo 0 in
  let endpoints = Array.make per_group None in
  List.iter
    (fun pid ->
      ignore
        (Engine.spawn engine pid (fun services ->
             let hb, detector =
               match cell.g_detector with
               | Oracle ->
                 (None, Fd.Detector.oracle ~delay:(Sim_time.of_ms 10) services)
               | Heartbeats ->
                 let hb =
                   Fd.Heartbeat.create ~services
                     ~wrap:(fun m -> GHb m)
                     ~monitored:parts ~period:(Sim_time.of_ms 5)
                     ~timeout:(Sim_time.of_ms 25) ()
                 in
                 (Some hb, Fd.Heartbeat.detector hb)
             in
             let ep =
               Consensus.Paxos.create ~services
                 ~wrap:(fun m -> GPx m)
                 ~participants:parts ~detector ~timeout:(Sim_time.of_ms 60)
                 ~all_to_all:cell.g_all_to_all
                 ~on_decide:(fun ~instance v ->
                   decisions := (pid, instance, v) :: !decisions)
                 ()
             in
             endpoints.(pid) <- Some ep;
             ( (),
               {
                 Engine.on_receive =
                   (fun ~src w ->
                     match (w, hb) with
                     | GHb m, Some hb -> Fd.Heartbeat.handle hb ~src m
                     | GHb _, None -> ()
                     | GPx m, _ ->
                       if carries_accepted m then incr carried;
                       Consensus.Paxos.handle ep ~src m);
               } ))))
    parts;
  let endpoints = Array.map Option.get endpoints in
  cell.g_setup engine endpoints;
  (* Heartbeats never stop: every cell runs to the same horizon. *)
  Engine.run ~until:(Sim_time.of_ms 600) engine;
  let counts = Hashtbl.create 8 in
  List.iter
    (function
      | Trace.Send { tag; _ } when String.starts_with ~prefix:"cons." tag ->
        Hashtbl.replace counts tag
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts tag))
      | _ -> ())
    (Trace.entries (Engine.trace engine));
  let counts =
    Hashtbl.fold (fun k v acc -> Fmt.str "%s=%d" k v :: acc) counts []
    |> List.sort compare
  in
  let decided =
    List.map
      (fun pid ->
        List.filter_map
          (fun (p, i, v) -> if p = pid then Some (i, v) else None)
          !decisions
        |> List.sort compare
        |> List.map (fun (i, v) -> Fmt.str "%d=%s" i v)
        |> List.cons (Fmt.str "p%d" pid)
        |> String.concat " ")
      parts
  in
  Fmt.str "events=%d carried=%d"
    (Scheduler.executed (Engine.scheduler engine))
    !carried
  :: String.concat " " counts
  :: decided

let golden_propose engine endpoints ~at_us ~pid ~instance v =
  Engine.at engine (Sim_time.of_us at_us) (fun () ->
      Consensus.Paxos.propose endpoints.(pid) ~instance v)

(* Instances 1..4, every process proposing, one per millisecond; the
   ballot-0 coordinator p0 crashes at 2.5 ms and loses its in-flight
   sends. *)
let crash_mid engine endpoints =
  for i = 1 to 4 do
    for pid = 0 to 4 do
      golden_propose engine endpoints ~at_us:(i * 1000) ~pid ~instance:i
        (Fmt.str "i%d-p%d" i pid)
    done
  done;
  Engine.schedule_crash ~drop:Engine.Lose_all_inflight engine
    ~at:(Sim_time.of_us 2_500) 0

(* p0 alone proposes [a0] for instance 1 and crashes while its ballot-0
   Accept is in flight: only p4 receives it. p1 takes over and proposes
   [b1]; it crashes while its own Accept is in flight, reaching only p3.
   p2 then collects promises carrying (0, a0) from p4 and (b, b1) from p3
   and must push the higher ballot's value. p2 and p3 also propose
   values of their own, which must lose to the accepted ones. *)
let carry ~p1_crash_us engine endpoints =
  golden_propose engine endpoints ~at_us:1_000 ~pid:0 ~instance:1 "a0";
  Engine.schedule_crash ~drop:(Engine.Lose_to [ 1; 2; 3 ]) engine
    ~at:(Sim_time.of_us 1_500) 0;
  golden_propose engine endpoints ~at_us:3_000 ~pid:1 ~instance:1 "b1";
  golden_propose engine endpoints ~at_us:3_000 ~pid:2 ~instance:1 "c2";
  golden_propose engine endpoints ~at_us:3_000 ~pid:3 ~instance:1 "d3";
  Engine.schedule_crash ~drop:(Engine.Lose_to [ 2; 4 ]) engine
    ~at:(Sim_time.of_us p1_crash_us) 1

(* A stream of 12 instances proposed by everyone, every 4 ms; at 20 ms
   every detector's timeouts shrink twentyfold, so peers falsely suspect
   each other until the ◇P back-off revokes the suspicions. *)
let storm engine endpoints =
  for i = 1 to 12 do
    for pid = 0 to 4 do
      golden_propose engine endpoints ~at_us:(i * 4000) ~pid ~instance:i
        (Fmt.str "i%d-p%d" i pid)
    done
  done;
  Engine.at engine (Sim_time.of_ms 20) (fun () -> Engine.perturb_fd engine 0.05)

(* The oracle ignores [Engine.perturb_fd], so the storm runs on
   heartbeats only. p1's crash in [carry] is timed to land while its
   Accept is in flight under each detector's detection delay. *)
let golden_cells =
  List.concat_map
    (fun (all_to_all, routing) ->
      let cell name detector setup =
        ( Fmt.str name routing,
          { g_all_to_all = all_to_all; g_detector = detector; g_setup = setup }
        )
      in
      [
        cell "crash-mid %s oracle" Oracle crash_mid;
        cell "crash-mid %s heartbeat" Heartbeats crash_mid;
        cell "carry %s oracle" Oracle (carry ~p1_crash_us:14_000);
        cell "carry %s heartbeat" Heartbeats (carry ~p1_crash_us:29_000);
        cell "storm %s heartbeat" Heartbeats storm;
      ])
    [ (false, "coordinator-only"); (true, "all-to-all") ]

let golden_expected =
  [
    ( "crash-mid coordinator-only oracle",
      [
        "events=130 carried=3";
        "cons.accept=30 cons.accepted=21 cons.decide=20 "
        ^ "cons.lease_prepare=4 cons.lease_promise=3 cons.suggest=28";
        "p0";
        "p1 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
        "p2 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
        "p3 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
        "p4 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
      ] );
    ( "crash-mid coordinator-only heartbeat",
      [
        "events=2538 carried=3";
        "cons.accept=30 cons.accepted=21 cons.decide=20 "
        ^ "cons.lease_prepare=4 cons.lease_promise=3 cons.suggest=28";
        "p0";
        "p1 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
        "p2 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
        "p3 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
        "p4 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
      ] );
    ( "carry coordinator-only oracle",
      [
        "events=57 carried=3";
        "cons.accept=15 cons.accepted=5 cons.decide=5 "
        ^ "cons.lease_prepare=8 cons.lease_promise=5 cons.suggest=6";
        "p0";
        "p1";
        "p2 1=b1";
        "p3 1=b1";
        "p4 1=b1";
      ] );
    ( "carry coordinator-only heartbeat",
      [
        "events=1896 carried=3";
        "cons.accept=15 cons.accepted=5 cons.decide=5 "
        ^ "cons.lease_prepare=8 cons.lease_promise=5 cons.suggest=6";
        "p0";
        "p1";
        "p2 1=b1";
        "p3 1=b1";
        "p4 1=b1";
      ] );
    ( "storm coordinator-only heartbeat",
      [
        "events=3654 carried=29";
        "cons.accept=100 cons.accepted=61 cons.decide=90 "
        ^ "cons.lease_prepare=76 cons.lease_promise=52 cons.suggest=154";
        "p0 1=i1-p0 2=i2-p0 3=i3-p0 4=i4-p0 5=i5-p0 6=i6-p0 7=i7-p0 "
        ^ "8=i8-p0 9=i9-p0 10=i10-p0 11=i11-p0 12=i12-p0";
        "p1 1=i1-p0 2=i2-p0 3=i3-p0 4=i4-p0 5=i5-p0 6=i6-p0 7=i7-p0 "
        ^ "8=i8-p0 9=i9-p0 10=i10-p0 11=i11-p0 12=i12-p0";
        "p2 1=i1-p0 2=i2-p0 3=i3-p0 4=i4-p0 5=i5-p0 6=i6-p0 7=i7-p0 "
        ^ "8=i8-p0 9=i9-p0 10=i10-p0 11=i11-p0 12=i12-p0";
        "p3 1=i1-p0 2=i2-p0 3=i3-p0 4=i4-p0 5=i5-p0 6=i6-p0 7=i7-p0 "
        ^ "8=i8-p0 9=i9-p0 10=i10-p0 11=i11-p0 12=i12-p0";
        "p4 1=i1-p0 2=i2-p0 3=i3-p0 4=i4-p0 5=i5-p0 6=i6-p0 7=i7-p0 "
        ^ "8=i8-p0 9=i9-p0 10=i10-p0 11=i11-p0 12=i12-p0";
      ] );
    ( "crash-mid all-to-all oracle",
      [
        "events=242 carried=3";
        "cons.accept=25 cons.accepted=85 cons.decide=80 "
        ^ "cons.lease_prepare=4 cons.lease_promise=3 cons.suggest=25";
        "p0";
        "p1 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
        "p2 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
        "p3 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
        "p4 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
      ] );
    ( "crash-mid all-to-all heartbeat",
      [
        "events=2650 carried=3";
        "cons.accept=25 cons.accepted=85 cons.decide=80 "
        ^ "cons.lease_prepare=4 cons.lease_promise=3 cons.suggest=25";
        "p0";
        "p1 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
        "p2 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
        "p3 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
        "p4 1=i1-p0 2=i2-p1 3=i3-p1 4=i4-p1";
      ] );
    ( "carry all-to-all oracle",
      [
        "events=87 carried=3";
        "cons.accept=15 cons.accepted=25 cons.decide=15 "
        ^ "cons.lease_prepare=8 cons.lease_promise=5 cons.suggest=6";
        "p0";
        "p1";
        "p2 1=b1";
        "p3 1=b1";
        "p4 1=b1";
      ] );
    ( "carry all-to-all heartbeat",
      [
        "events=1926 carried=3";
        "cons.accept=15 cons.accepted=25 cons.decide=15 "
        ^ "cons.lease_prepare=8 cons.lease_promise=5 cons.suggest=6";
        "p0";
        "p1";
        "p2 1=b1";
        "p3 1=b1";
        "p4 1=b1";
      ] );
    ( "storm all-to-all heartbeat",
      [
        "events=4007 carried=39";
        "cons.accept=80 cons.accepted=300 cons.decide=300 "
        ^ "cons.lease_prepare=60 cons.lease_promise=42 cons.suggest=104";
        "p0 1=i1-p0 2=i2-p0 3=i3-p0 4=i4-p0 5=i5-p0 6=i6-p0 7=i7-p0 "
        ^ "8=i8-p0 9=i9-p0 10=i10-p0 11=i11-p0 12=i12-p0";
        "p1 1=i1-p0 2=i2-p0 3=i3-p0 4=i4-p0 5=i5-p0 6=i6-p0 7=i7-p0 "
        ^ "8=i8-p0 9=i9-p0 10=i10-p0 11=i11-p0 12=i12-p0";
        "p2 1=i1-p0 2=i2-p0 3=i3-p0 4=i4-p0 5=i5-p0 6=i6-p0 7=i7-p0 "
        ^ "8=i8-p0 9=i9-p0 10=i10-p0 11=i11-p0 12=i12-p0";
        "p3 1=i1-p0 2=i2-p0 3=i3-p0 4=i4-p0 5=i5-p0 6=i6-p0 7=i7-p0 "
        ^ "8=i8-p0 9=i9-p0 10=i10-p0 11=i11-p0 12=i12-p0";
        "p4 1=i1-p0 2=i2-p0 3=i3-p0 4=i4-p0 5=i5-p0 6=i6-p0 7=i7-p0 "
        ^ "8=i8-p0 9=i9-p0 10=i10-p0 11=i11-p0 12=i12-p0";
      ] );
  ]

let test_recovery_golden () =
  List.iter
    (fun (name, cell) ->
      let got = golden_run cell in
      match List.assoc_opt name golden_expected with
      | Some want -> Alcotest.(check (list string)) name want got
      | None -> Alcotest.failf "no golden literal for %s" name)
    golden_cells

let suites =
  suites
  @ [
      ( "consensus-golden",
        [
          Alcotest.test_case "golden pin: recovery paths" `Quick
            test_recovery_golden;
        ] );
    ]
