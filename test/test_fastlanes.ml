(* Tests for the steady-state message path (the fast lanes). Paxos keeps
   two patterns, because the ring and scalable baselines run the
   all-to-all one: both must decide the same values, and the Multi-Paxos
   pattern must hold a lease and prune decided instances. The uniform
   reliable multicast must meet its spec under a crashing caster and
   reclaim its entries; the fritzke baseline must run the caller's
   config; and small crash-free campaigns of every protocol must come
   out clean. Complements bench/msgpath_bench.exe, which measures the
   Figure 1 workloads cell by cell. *)

open Des
open Net
open Runtime

(* ------------------------------------------------------------------ *)
(* Consensus: a one-group Paxos deployment, parameterised by mode. *)

type cdep = {
  engine : string Consensus.Paxos.msg Engine.t;
  endpoints : (string, string Consensus.Paxos.msg) Consensus.Paxos.t array;
  decisions : (Topology.pid * int * string) list ref;
}

let consensus_deploy ~fast_lanes ~seed ~per_group =
  let topo = Topology.symmetric ~groups:1 ~per_group in
  let engine =
    Engine.create ~seed ~latency:Util.crisp_latency ~tag:Consensus.Paxos.tag
      topo
  in
  let decisions = ref [] in
  let endpoints = Array.make per_group None in
  List.iter
    (fun pid ->
      let ep =
        Engine.spawn engine pid (fun services ->
            let detector =
              Fd.Detector.oracle ~delay:(Sim_time.of_ms 10) services
            in
            let ep =
              Consensus.Paxos.create ~services ~wrap:Fun.id
                ~participants:(Topology.members topo 0)
                ~detector ~timeout:(Sim_time.of_ms 60) ~fast_lanes
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
    (Topology.all_pids topo);
  { engine; endpoints = Array.map Option.get endpoints; decisions }

type cons_scenario = {
  c_seed : int;
  c_d : int;
  c_insts : int;
  c_crash : (Topology.pid * int) option; (* victim, crash time in us *)
}

let pp_cons_scenario s =
  Fmt.str "{seed=%d; d=%d; insts=%d; crash=%a}" s.c_seed s.c_d s.c_insts
    Fmt.(option (pair int int))
    s.c_crash

let cons_scenario_gen =
  let open QCheck2.Gen in
  let* c_seed = int_bound 100_000 in
  let* c_d = int_range 3 5 in
  let* c_insts = int_range 1 6 in
  let+ c_crash =
    let* crash = bool in
    if crash then
      let* victim = int_range 0 2 in
      let+ at = int_range 500 8_000 in
      Some (victim, at)
    else pure None
  in
  { c_seed; c_d; c_insts; c_crash }

(* One run: every process proposes in every instance; decisions grouped by
   instance. *)
let cons_run ~fast_lanes (s : cons_scenario) =
  let d = consensus_deploy ~fast_lanes ~seed:s.c_seed ~per_group:s.c_d in
  (match s.c_crash with
  | Some (victim, at) ->
    Engine.schedule_crash ~drop:Engine.Lose_all_inflight d.engine
      ~at:(Sim_time.of_us at) victim
  | None -> ());
  for i = 1 to s.c_insts do
    Array.iteri
      (fun pid ep ->
        Engine.at d.engine (Sim_time.of_ms i) (fun () ->
            Consensus.Paxos.propose ep ~instance:i (Fmt.str "i%d-p%d" i pid)))
      d.endpoints
  done;
  Engine.run d.engine;
  List.init s.c_insts (fun j ->
      let i = j + 1 in
      List.filter_map
        (fun (_, i', v) -> if i' = i then Some v else None)
        !(d.decisions)
      |> List.sort_uniq compare)

(* Both modes decide, agree within the run, and decide the same value per
   instance. *)
let prop_paxos_differential s =
  let fast = cons_run ~fast_lanes:true s in
  let reference = cons_run ~fast_lanes:false s in
  List.for_all2
    (fun f r ->
      match (f, r) with
      | [ vf ], [ vr ] ->
        vf = vr
        || QCheck2.Test.fail_reportf "%s: fast decided %s, reference %s"
             (pp_cons_scenario s) vf vr
      | [], _ | _, [] ->
        QCheck2.Test.fail_reportf "%s: an instance went undecided"
          (pp_cons_scenario s)
      | _ ->
        QCheck2.Test.fail_reportf "%s: disagreement within a run"
          (pp_cons_scenario s))
    fast reference

let test_lease_acquired () =
  (* After a decided instance the fast-mode ballot-0 coordinator holds the
     lease (phase 1 skipped from then on); the reference mode has no lease
     machinery. *)
  let run ~fast_lanes =
    let d = consensus_deploy ~fast_lanes ~seed:0 ~per_group:3 in
    for i = 1 to 3 do
      Engine.at d.engine (Sim_time.of_ms i) (fun () ->
          Consensus.Paxos.propose d.endpoints.(0) ~instance:i
            (Fmt.str "v%d" i))
    done;
    Engine.run d.engine;
    ( Consensus.Paxos.holds_lease d.endpoints.(0),
      Network.sent_total (Engine.network d.engine) )
  in
  let fast_lease, fast_msgs = run ~fast_lanes:true in
  let ref_lease, ref_msgs = run ~fast_lanes:false in
  Alcotest.(check bool) "fast coordinator holds lease" true fast_lease;
  Alcotest.(check bool) "reference has no lease" false ref_lease;
  Alcotest.(check bool)
    (Fmt.str "fast sends fewer messages (%d < %d)" fast_msgs ref_msgs)
    true (fast_msgs < ref_msgs)

let test_instance_gc () =
  (* Fast mode prunes decided instances below the watermark; the reference
     mode retains every decided instance. *)
  let run ~fast_lanes =
    let d = consensus_deploy ~fast_lanes ~seed:0 ~per_group:3 in
    for i = 1 to 10 do
      Array.iteri
        (fun pid ep ->
          Engine.at d.engine (Sim_time.of_ms i) (fun () ->
              Consensus.Paxos.propose ep ~instance:i
                (Fmt.str "i%d-p%d" i pid)))
        d.endpoints
    done;
    Engine.run d.engine;
    ( Consensus.Paxos.retained_instances d.endpoints.(0),
      Consensus.Paxos.pruned_upto d.endpoints.(0) )
  in
  let fast_retained, fast_pruned = run ~fast_lanes:true in
  let ref_retained, ref_pruned = run ~fast_lanes:false in
  Alcotest.(check int) "reference retains all 10" 10 ref_retained;
  Alcotest.(check int) "reference prunes nothing" 0 ref_pruned;
  Alcotest.(check bool)
    (Fmt.str "fast retains fewer (%d < 10)" fast_retained)
    true
    (fast_retained < 10);
  Alcotest.(check bool)
    (Fmt.str "fast pruned a prefix (%d > 0)" fast_pruned)
    true (fast_pruned > 0);
  (* An A1-style clock: [note_consumed] jumps the watermark over instance
     numbers nobody proposes, and one jump overtakes an instance still in
     flight. Pins (pruned_upto, decided_upto, retained_instances) at every
     process after each step; the followers prune one Decide behind the
     coordinator, which alone sees every peer's watermark. *)
  let d = consensus_deploy ~fast_lanes:true ~seed:0 ~per_group:3 in
  let at_us us f = Engine.at d.engine (Sim_time.of_us us) f in
  let propose_all ~at instance =
    Array.iteri
      (fun pid ep ->
        at_us at (fun () ->
            Consensus.Paxos.propose ep ~instance
              (Fmt.str "i%d-p%d" instance pid)))
      d.endpoints
  in
  let consume_all ~at upto =
    Array.iter
      (fun ep -> at_us at (fun () -> Consensus.Paxos.note_consumed ep ~upto))
      d.endpoints
  in
  let snapshot () =
    Engine.run d.engine;
    Array.to_list d.endpoints
    |> List.map (fun ep ->
           ( Consensus.Paxos.pruned_upto ep,
             Consensus.Paxos.decided_upto ep,
             Consensus.Paxos.retained_instances ep ))
  in
  let step name ~want setup =
    setup (Sim_time.to_us (Engine.now d.engine) + 1_000);
    Alcotest.(check (list (triple int int int))) name want (snapshot ())
  in
  step "decide 1" ~want:[ (0, 1, 1); (0, 1, 1); (0, 1, 1) ] (fun t ->
      propose_all ~at:t 1);
  step "jump to 4" ~want:[ (0, 4, 1); (0, 4, 1); (0, 4, 1) ] (fun t ->
      consume_all ~at:t 4);
  step "decide 5" ~want:[ (4, 5, 1); (0, 5, 2); (0, 5, 2) ] (fun t ->
      propose_all ~at:t 5);
  step "jump past in-flight 6" ~want:[ (4, 9, 1); (0, 9, 2); (0, 9, 2) ]
    (fun t ->
      propose_all ~at:t 6;
      consume_all ~at:(t + 500) 9);
  step "decide 10" ~want:[ (9, 10, 1); (4, 10, 2); (4, 10, 2) ] (fun t ->
      propose_all ~at:t 10);
  step "jump to 12" ~want:[ (9, 12, 1); (4, 12, 2); (4, 12, 2) ] (fun t ->
      consume_all ~at:t 12)

(* ------------------------------------------------------------------ *)
(* Reliable multicast: Ack_uniform with payload-free Copy acks. *)

type rdep = {
  r_engine : string Rmcast.Reliable_multicast.msg Engine.t;
  r_endpoints :
    (string, string Rmcast.Reliable_multicast.msg)
    Rmcast.Reliable_multicast.t
    array;
  r_delivered : (Topology.pid * Msg_id.t) list ref;
}

let rmcast_deploy ~seed topology =
  let engine =
    Engine.create ~seed ~latency:Util.crisp_latency
      ~tag:Rmcast.Reliable_multicast.tag topology
  in
  let delivered = ref [] in
  let n = Topology.n_processes topology in
  let endpoints = Array.make n None in
  List.iter
    (fun pid ->
      let ep =
        Engine.spawn engine pid (fun services ->
            let ep =
              Rmcast.Reliable_multicast.create ~services ~wrap:Fun.id
                ~mode:Rmcast.Reliable_multicast.Ack_uniform
                ~oracle_delay:(Sim_time.of_ms 10)
                ~on_deliver:(fun ~id ~origin:_ ~dest:_ _ ->
                  delivered := (pid, id) :: !delivered)
                ()
            in
            ( ep,
              {
                Engine.on_receive =
                  (fun ~src m -> Rmcast.Reliable_multicast.handle ep ~src m);
              } ))
      in
      endpoints.(pid) <- Some ep)
    (Topology.all_pids topology);
  {
    r_engine = engine;
    r_endpoints = Array.map Option.get endpoints;
    r_delivered = delivered;
  }

let test_rmcast_gc () =
  (* Failure-free uniform multicast: every entry is reclaimed down to a
     tombstone once relayed + delivered + fully vouched. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = rmcast_deploy ~seed:0 topo in
  Engine.at d.r_engine (Sim_time.of_ms 1) (fun () ->
      Rmcast.Reliable_multicast.rmcast d.r_endpoints.(0)
        ~id:(Msg_id.make ~origin:0 ~seq:0)
        ~dest:[ 0; 1; 2; 3 ] "x");
  Engine.run d.r_engine;
  let total f = Array.fold_left (fun acc ep -> acc + f ep) 0 d.r_endpoints in
  Alcotest.(check (list int))
    "all addressees" [ 0; 1; 2; 3 ]
    (List.map fst !(d.r_delivered) |> List.sort compare);
  Alcotest.(check int)
    "every entry reclaimed" 0
    (total Rmcast.Reliable_multicast.retained_entries);
  Alcotest.(check int)
    "4 tombstones" 4
    (total Rmcast.Reliable_multicast.reclaimed_entries)

let prop_rmcast_uniform_spec (seed, d, lossy) =
  (* Ack_uniform under a caster that crashes while its copies to a random
     subset of the addressees are in flight, checked against the spec in
     reliable_multicast.mli. Uniform agreement: if any process, the
     crashing caster included, R-delivers, every correct addressee does.
     Integrity: only addressees deliver, each at most once. Validity: with
     a correct caster every addressee delivers. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:(1 + d) in
  let dep = rmcast_deploy ~seed topo in
  let rng = Rng.create (seed + 3) in
  let dest =
    List.filter (fun p -> Rng.bool rng || p = 1) (Topology.all_pids topo)
  in
  let victims = List.filter (fun p -> p <> 0 && Rng.bool rng) dest in
  Engine.at dep.r_engine (Sim_time.of_ms 1) (fun () ->
      Rmcast.Reliable_multicast.rmcast dep.r_endpoints.(0)
        ~id:(Msg_id.make ~origin:0 ~seq:0)
        ~dest "x");
  if lossy then
    Engine.schedule_crash ~drop:(Engine.Lose_to victims) dep.r_engine
      ~at:(Sim_time.of_us (1_050 + Rng.int rng 500))
      0;
  Engine.run dep.r_engine;
  let deliveries = List.map fst !(dep.r_delivered) |> List.sort Int.compare in
  let deliverers = List.sort_uniq Int.compare deliveries in
  let correct_dest = List.filter (fun p -> not (lossy && p = 0)) dest in
  let fail what =
    QCheck2.Test.fail_reportf "seed=%d d=%d lossy=%b dest=%a: %s, delivered %a"
      seed d lossy
      Fmt.(Dump.list int)
      dest what
      Fmt.(Dump.list int)
      deliveries
  in
  if List.length deliveries <> List.length deliverers then
    fail "a process delivered twice"
  else if not (List.for_all (fun p -> List.mem p dest) deliverers) then
    fail "a non-addressee delivered"
  else if
    deliverers <> []
    && not (List.for_all (fun p -> List.mem p deliverers) correct_dest)
  then fail "a correct addressee missed a delivered message"
  else if (not lossy) && deliverers <> dest then
    fail "a correct caster's message missed an addressee"
  else true

(* ------------------------------------------------------------------ *)
(* Engine: the broadcast lane delivers the same receives at the same
   times as per-destination sends. *)

let test_send_multi_equivalence () =
  let run use_multi =
    let topo = Topology.symmetric ~groups:2 ~per_group:2 in
    let engine =
      Engine.create ~seed:0 ~latency:Util.crisp_latency
        ~tag:(fun _ -> "m")
        topo
    in
    let received = ref [] in
    let svcs = Array.make 4 None in
    List.iter
      (fun pid ->
        ignore
          (Engine.spawn engine pid (fun services ->
               svcs.(pid) <- Some services;
               ( (),
                 {
                   Engine.on_receive =
                     (fun ~src m ->
                       received :=
                         (pid, src, m, Sim_time.to_us (Engine.now engine))
                         :: !received);
                 } ))))
      (Topology.all_pids topo);
    Engine.at engine (Sim_time.of_ms 1) (fun () ->
        let s = Option.get svcs.(0) in
        if use_multi then Services.send_multi s [ 1; 2; 3 ] "x"
        else Services.send_all s [ 1; 2; 3 ] "x");
    Engine.run engine;
    List.sort compare !received
  in
  let multi = run true in
  let alls = run false in
  Alcotest.(check int) "three receives" 3 (List.length multi);
  Alcotest.(check bool) "identical receives and times" true (multi = alls)

(* ------------------------------------------------------------------ *)
(* End-to-end: small crisp, crash-free campaigns of every protocol must
   come out clean on the fast message path — no violations, every run
   drained, and something delivered. Crash schedules are exercised by the
   direct paxos/rmcast properties above. *)

let campaign_clean (e : Amcast.Catalogue.entry) =
  Alcotest.test_case e.name `Slow (fun () ->
      Harness.Campaign.scenarios ~broadcast_only:e.broadcast_only
        ~with_crashes:false ~seed:99 ~runs:6 ()
      |> List.map (fun s -> { s with Harness.Campaign.jitter = false })
      |> Harness.Campaign.run_scenarios e.proto
           ~config:Amcast.Protocol.Config.default ~expect_genuine:e.genuine
      |> List.iter (fun (o : Harness.Campaign.outcome) ->
             Alcotest.(check (list string)) "violations" [] o.violations;
             Alcotest.(check bool) "delivered" true (o.delivered > 0);
             Alcotest.(check bool) "drained" true o.drained))

(* Fritzke runs the caller's config with only the two skips forced off:
   on the d=2 k=2 Figure 1(a) cell, the uniform reliable multicast's
   payload-free Copy acks appear exactly when the caller asks for
   Ack_uniform. *)
let test_fritzke_caller_config () =
  let cell =
    List.find
      (fun (c : Harness.Figure1.cell) ->
        c.algorithm = "fritzke" && c.k = 2 && c.d = 2)
      Harness.Figure1.figure_1a
  in
  let copies config =
    let r, _ = cell.run ~config ~seed:0 in
    Option.value ~default:0
      (List.assoc_opt "rm.copy" (Test_stamp_order.sends_by_tag r))
  in
  Alcotest.(check int) "default: no rm.copy" 0
    (copies Amcast.Protocol.Config.default);
  let uniform =
    copies
      {
        Amcast.Protocol.Config.default with
        rm_mode = Rmcast.Reliable_multicast.Ack_uniform;
      }
  in
  Alcotest.(check bool)
    (Fmt.str "Ack_uniform: %d rm.copy sends" uniform)
    true (uniform > 0)

let suites =
  [
    ( "fast-lanes",
      [
        Util.qcheck_case ~count:40
          ~name:"paxos: fast and reference decide the same values"
          cons_scenario_gen prop_paxos_differential;
        Alcotest.test_case "paxos: coordinator lease" `Quick
          test_lease_acquired;
        Alcotest.test_case "paxos: decided-instance GC" `Quick
          test_instance_gc;
        Alcotest.test_case "rmcast: uniform entry GC" `Quick test_rmcast_gc;
        Util.qcheck_case ~count:40
          ~name:"rmcast: uniform delivery meets its spec"
          QCheck2.Gen.(triple (int_bound 10_000) (int_range 1 3) bool)
          prop_rmcast_uniform_spec;
        Alcotest.test_case "engine: send_multi = send_all" `Quick
          test_send_multi_equivalence;
        Alcotest.test_case "fritzke: caller config reaches the protocol"
          `Quick test_fritzke_caller_config;
      ] );
    ( "fast-lanes-campaign",
      List.map campaign_clean Amcast.Catalogue.soak_targets );
  ]
