(* Tests for the steady-state message path (the fast lanes). Paxos is one
   protocol with two routings of its votes and decisions, because the
   ring and scalable baselines run the all-to-all one: both must decide
   the same values, hold a coordinator lease and prune decided
   instances. The uniform reliable multicast must meet its spec under a
   crashing caster and reclaim its entries; the fritzke baseline must
   run the caller's config; and small crash-free campaigns of every
   protocol must come out clean. Complements bench/msgpath_bench.exe,
   which measures the Figure 1 workloads cell by cell. *)

open Des
open Net
open Runtime

(* ------------------------------------------------------------------ *)
(* Consensus: a one-group Paxos deployment, parameterised by routing. *)

type cdep = {
  engine : string Consensus.Paxos.msg Engine.t;
  endpoints : (string, string Consensus.Paxos.msg) Consensus.Paxos.t array;
  decisions : (Topology.pid * int * string) list ref;
}

let consensus_deploy ~all_to_all ~seed ~per_group =
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
                ~detector ~timeout:(Sim_time.of_ms 60) ~all_to_all
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
let cons_run ~all_to_all (s : cons_scenario) =
  let d = consensus_deploy ~all_to_all ~seed:s.c_seed ~per_group:s.c_d in
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

(* Both routings decide, agree within the run, and decide the same value
   per instance. *)
let prop_paxos_differential s =
  let coordinator = cons_run ~all_to_all:false s in
  let all_to_all = cons_run ~all_to_all:true s in
  List.for_all2
    (fun c a ->
      match (c, a) with
      | [ vc ], [ va ] ->
        vc = va
        || QCheck2.Test.fail_reportf
             "%s: coordinator-only decided %s, all-to-all %s"
             (pp_cons_scenario s) vc va
      | [], _ | _, [] ->
        QCheck2.Test.fail_reportf "%s: an instance went undecided"
          (pp_cons_scenario s)
      | _ ->
        QCheck2.Test.fail_reportf "%s: disagreement within a run"
          (pp_cons_scenario s))
    coordinator all_to_all

let test_lease_acquired () =
  (* After a decided instance the ballot-0 coordinator holds the lease
     (phase 1 skipped from then on) under either routing; the
     coordinator-only one sends fewer messages. *)
  let run ~all_to_all =
    let d = consensus_deploy ~all_to_all ~seed:0 ~per_group:3 in
    for i = 1 to 3 do
      Engine.at d.engine (Sim_time.of_ms i) (fun () ->
          Consensus.Paxos.propose d.endpoints.(0) ~instance:i
            (Fmt.str "v%d" i))
    done;
    Engine.run d.engine;
    ( Consensus.Paxos.holds_lease d.endpoints.(0),
      Network.sent_total (Engine.network d.engine) )
  in
  let coord_lease, coord_msgs = run ~all_to_all:false in
  let a2a_lease, a2a_msgs = run ~all_to_all:true in
  Alcotest.(check bool) "coordinator-only: leader holds lease" true
    coord_lease;
  Alcotest.(check bool) "all-to-all: leader holds lease" true a2a_lease;
  Alcotest.(check bool)
    (Fmt.str "coordinator-only sends fewer messages (%d < %d)" coord_msgs
       a2a_msgs)
    true
    (coord_msgs < a2a_msgs)

let test_instance_gc () =
  (* Both routings prune decided instances below the watermark. *)
  let run ~all_to_all =
    let d = consensus_deploy ~all_to_all ~seed:0 ~per_group:3 in
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
  List.iter
    (fun (name, all_to_all) ->
      let retained, pruned = run ~all_to_all in
      Alcotest.(check bool)
        (Fmt.str "%s retains fewer (%d < 10)" name retained)
        true (retained < 10);
      Alcotest.(check bool)
        (Fmt.str "%s pruned a prefix (%d > 0)" name pruned)
        true (pruned > 0))
    [ ("coordinator-only", false); ("all-to-all", true) ];
  (* An A1-style clock: [note_consumed] jumps the watermark over instance
     numbers nobody proposes, and one jump overtakes an instance still in
     flight. Pins (pruned_upto, decided_upto, retained_instances) at every
     process after each step; the followers prune one Decide behind the
     coordinator, which alone sees every peer's watermark. *)
  let d = consensus_deploy ~all_to_all:false ~seed:0 ~per_group:3 in
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
(* Reliable multicast: the eager primitive and its crash relay. *)

let prop_rmcast_crash_spec (seed, d, lossy) =
  (* A caster that crashes while its copies to a random subset of the
     addressees are in flight, or after some of them have delivered,
     checked against the spec in reliable_multicast.mli. Agreement
     (non-uniform): if a correct process R-delivers, every correct
     addressee does; only the crash relay gets the message to the
     addressees whose copies were lost. Integrity: only addressees
     deliver, each at most once. Validity: with a correct caster every
     addressee delivers. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:(1 + d) in
  let dep = Test_rmcast.deploy ~seed topo in
  let rng = Rng.create (seed + 3) in
  let dest =
    List.filter (fun p -> Rng.bool rng || p = 1) (Topology.all_pids topo)
  in
  let victims = List.filter (fun p -> p <> 0 && Rng.bool rng) dest in
  ignore (Test_rmcast.cast_at dep ~at:(Sim_time.of_ms 1) ~origin:0 ~dest "x");
  if lossy then
    Engine.schedule_crash ~drop:(Engine.Lose_to victims) dep.Test_rmcast.engine
      ~at:(Sim_time.of_us (1_050 + Rng.int rng 60_000))
      0;
  Engine.run dep.Test_rmcast.engine;
  let deliveries =
    List.map (fun (p, _, _) -> p) !(dep.Test_rmcast.delivered)
    |> List.sort Int.compare
  in
  let deliverers = List.sort_uniq Int.compare deliveries in
  let correct p = not (lossy && p = 0) in
  let correct_dest = List.filter correct dest in
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
    List.exists correct deliverers
    && not (List.for_all (fun p -> List.mem p deliverers) correct_dest)
  then fail "a correct addressee missed a delivered message"
  else if (not lossy) && deliverers <> dest then
    fail "a correct caster's message missed an addressee"
  else true

(* ------------------------------------------------------------------ *)
(* Engine: the broadcast lane delivers the same receives at the same
   times as per-destination sends. *)

(* Runs [act svcs] at 1 ms on a fresh engine and returns every receive
   as (pid, src, message, arrival in us), in delivery order. *)
let receives ~groups ~per_group ~latency act =
  let topo = Topology.symmetric ~groups ~per_group in
  let engine = Engine.create ~seed:0 ~latency ~tag:(fun _ -> "m") topo in
  let received = ref [] in
  let svcs = Array.make (Topology.n_processes topo) None in
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
      act (Array.map Option.get svcs));
  Engine.run engine;
  List.rev !received

let test_send_multi_equivalence () =
  let run use_multi =
    receives ~groups:2 ~per_group:2 ~latency:Util.crisp_latency (fun svcs ->
        if use_multi then Services.send_multi svcs.(0) [ 1; 2; 3 ] "x"
        else Services.send_all svcs.(0) [ 1; 2; 3 ] "x")
    |> List.sort compare
  in
  let multi = run true in
  let alls = run false in
  Alcotest.(check int) "three receives" 3 (List.length multi);
  Alcotest.(check bool) "identical receives and times" true (multi = alls)

(* Where the two shapes differ: at a tie. A [Multi] slot re-arms its next
   destination with a fresh handle when it pops, so an event scheduled
   after the fan-out but before that pop goes first. p0 sends x to p1
   and p2, then p3 sends y to p2, all arriving at one instant: p2 takes x
   first after [send_all] and y first after [send_multi], with the same
   receives at the same times. *)
let test_send_multi_tie_order () =
  let run use_multi =
    receives ~groups:1 ~per_group:4 ~latency:Latency.lan_only (fun svcs ->
        if use_multi then Services.send_multi svcs.(0) [ 1; 2 ] "x"
        else Services.send_all svcs.(0) [ 1; 2 ] "x";
        svcs.(3).send ~dst:2 "y")
  in
  let at_p2 =
    List.filter_map (fun (p, _, m, _) -> if p = 2 then Some m else None)
  in
  let multi = run true and alls = run false in
  Alcotest.(check (list string)) "send_all: x first" [ "x"; "y" ] (at_p2 alls);
  Alcotest.(check (list string)) "send_multi: y first" [ "y"; "x" ]
    (at_p2 multi);
  Alcotest.(check bool) "same receives at the same times" true
    (List.sort compare multi = List.sort compare alls)

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
      |> List.map
           (Harness.Campaign.run_one e.proto
              ~config:Amcast.Protocol.Config.default ~expect_genuine:e.genuine)
      |> List.iter (fun (o : Harness.Campaign.outcome) ->
             Alcotest.(check (list string)) "violations" [] o.violations;
             Alcotest.(check bool) "delivered" true (o.delivered > 0);
             Alcotest.(check bool) "drained" true o.drained))

(* Fritzke runs the caller's config with only the two skips forced off:
   under batching a lone cast waits out the flush timeout, so its
   delivery moves by exactly [batch_delay]. *)
let test_fritzke_caller_config () =
  let module R = Harness.Runner.Make (Amcast.Fritzke) in
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let latency_ms config =
    let r =
      R.run ~latency:Util.crisp_latency ~config topo
        (Harness.Workload.single ~at:(Sim_time.of_ms 1) ~origin:0
           ~dest:[ 0; 1 ] ())
    in
    match Harness.Metrics.delivery_latencies_ms r with
    | [ ms ] -> ms
    | l -> Alcotest.failf "expected one delivered cast, got %d" (List.length l)
  in
  let batched =
    {
      Amcast.Protocol.Config.default with
      batch_max = 8;
      batch_delay = Sim_time.of_ms 2;
    }
  in
  Alcotest.(check (float 1e-9))
    "batched delivery is one flush delay later"
    (latency_ms Amcast.Protocol.Config.default +. 2.0)
    (latency_ms batched)

let suites =
  [
    ( "fast-lanes",
      [
        Util.qcheck_case ~count:40
          ~name:"paxos: both routings decide the same values"
          cons_scenario_gen prop_paxos_differential;
        Alcotest.test_case "paxos: coordinator lease" `Quick
          test_lease_acquired;
        Alcotest.test_case "paxos: decided-instance GC" `Quick
          test_instance_gc;
        Util.qcheck_case ~count:40
          ~name:"rmcast: crash relay meets the spec"
          QCheck2.Gen.(triple (int_bound 10_000) (int_range 1 3) bool)
          prop_rmcast_crash_spec;
        Alcotest.test_case "engine: send_multi = send_all" `Quick
          test_send_multi_equivalence;
        Alcotest.test_case "engine: send_multi tie order" `Quick
          test_send_multi_tie_order;
        Alcotest.test_case "fritzke: caller config reaches the protocol"
          `Quick test_fritzke_caller_config;
      ] );
    ( "fast-lanes-campaign",
      List.map campaign_clean Amcast.Catalogue.soak_targets );
  ]
