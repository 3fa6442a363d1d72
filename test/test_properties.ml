(* Property-based tests: randomised workloads, topologies, schedules and
   crash patterns against the Section 2.2 specifications, checked by the
   trace-level oracles of Harness.Checker. *)

open Des
open Net
open Runtime

type scenario = {
  groups : int;
  per_group : int;
  seed : int;
  wseed : int;
  n_msgs : int;
  kmax : int;
  jitter : bool;
  gap_ms : int;
}

let pp_scenario s =
  Fmt.str
    "{groups=%d; per_group=%d; seed=%d; wseed=%d; n=%d; kmax=%d; jitter=%b; \
     gap=%dms}"
    s.groups s.per_group s.seed s.wseed s.n_msgs s.kmax s.jitter s.gap_ms

let scenario_gen =
  let open QCheck2.Gen in
  let* groups = int_range 2 4 in
  let* per_group = int_range 1 3 in
  let* seed = int_bound 1_000_000 in
  let* wseed = int_bound 1_000_000 in
  let* n_msgs = int_range 1 10 in
  let* kmax = int_range 1 groups in
  let* jitter = bool in
  let+ gap_ms = int_range 5 40 in
  { groups; per_group; seed; wseed; n_msgs; kmax; jitter; gap_ms }

let topology_of s = Topology.symmetric ~groups:s.groups ~per_group:s.per_group

let latency_of s =
  if s.jitter then Latency.wan_default else Util.crisp_latency

let workload_of ?(broadcast = false) s topo =
  let rng = Rng.create s.wseed in
  Harness.Workload.generate ~rng ~topology:topo ~n:s.n_msgs
    ~dest:
      (if broadcast then Harness.Workload.To_all_groups
       else Harness.Workload.Random_groups s.kmax)
    ~arrival:(`Poisson (Sim_time.of_ms s.gap_ms))
    ()

let assert_clean s violations =
  match violations with
  | [] -> true
  | v ->
    QCheck2.Test.fail_reportf "scenario %s:@.%a" (pp_scenario s)
      Fmt.(list ~sep:(any "@.") string)
      v

(* Crash at most a minority of each group, so consensus stays live. *)
let crash_faults s topo =
  let rng = Rng.create (s.seed + 7919) in
  List.concat_map
    (fun g ->
      let members = Topology.members topo g in
      let d = List.length members in
      let crashable = (d - 1) / 2 in
      if crashable = 0 || Rng.bool rng then []
      else begin
        let victims = Rng.sample_without_replacement rng crashable members in
        List.map
          (fun pid ->
            let at = Sim_time.of_ms (1 + Rng.int rng 200) in
            let drop =
              match Rng.int rng 3 with
              | 0 -> Runtime.Engine.Keep_inflight
              | 1 -> Runtime.Engine.Lose_all_inflight
              | _ -> Runtime.Engine.Lose_each_with_probability 0.5
            in
            { Harness.Runner.at; pid; drop })
          victims
      end)
    (Topology.all_groups topo)

(* ----- A1 ----- *)

module RA1 = Harness.Runner.Make (Amcast.A1)

let prop_a1_failure_free s =
  let topo = topology_of s in
  let r =
    RA1.run ~seed:s.seed ~latency:(latency_of s) topo (workload_of s topo)
  in
  assert_clean s (Harness.Checker.check_all ~expect_genuine:true r)

let prop_a1_with_crashes s =
  let topo = topology_of s in
  let faults = crash_faults s topo in
  let r =
    RA1.run ~seed:s.seed ~latency:(latency_of s) ~faults topo
      (workload_of s topo)
  in
  (* Genuineness is not asserted under crashes: crashed casters muddy the
     accounting of who legitimately "participates". *)
  assert_clean s (Harness.Checker.check_all r)

let prop_a1_multigroup_degree_at_least_two s =
  let topo = topology_of s in
  let r =
    RA1.run ~seed:s.seed ~latency:(latency_of s) topo (workload_of s topo)
  in
  List.for_all
    (fun (c : Harness.Run_result.cast_event) ->
      Amcast.Msg.is_single_group c.msg
      ||
      match Harness.Metrics.latency_degree r c.msg.Amcast.Msg.id with
      | None -> true
      | Some d ->
        d >= 2
        || QCheck2.Test.fail_reportf
             "scenario %s: multi-group %a delivered at degree %d < 2"
             (pp_scenario s) Runtime.Msg_id.pp c.msg.Amcast.Msg.id d)
    r.casts

let prop_a1_deterministic s =
  let run () =
    let topo = topology_of s in
    let r =
      RA1.run ~seed:s.seed ~latency:(latency_of s) topo (workload_of s topo)
    in
    List.map
      (fun (d : Harness.Run_result.delivery_event) ->
        (d.pid, d.msg.Amcast.Msg.id, Sim_time.to_us d.at, d.lc))
      r.deliveries
  in
  run () = run ()

(* ----- A2 ----- *)

module RA2 = Harness.Runner.Make (Amcast.A2)

let prop_a2_failure_free s =
  let topo = topology_of s in
  let r =
    RA2.run ~seed:s.seed ~latency:(latency_of s) topo
      (workload_of ~broadcast:true s topo)
  in
  assert_clean s
    (Harness.Checker.check_all r @ Harness.Checker.quiescence r)

let prop_a2_with_crashes s =
  let topo = topology_of s in
  let faults = crash_faults s topo in
  let r =
    RA2.run ~seed:s.seed ~latency:(latency_of s) ~faults topo
      (workload_of ~broadcast:true s topo)
  in
  assert_clean s (Harness.Checker.check_all r)

let prop_a2_identical_sequences s =
  (* Broadcast: at the end of a drained failure-free run, every process
     has delivered the exact same sequence. *)
  let topo = topology_of s in
  let r =
    RA2.run ~seed:s.seed ~latency:(latency_of s) topo
      (workload_of ~broadcast:true s topo)
  in
  let seqs =
    List.map
      (fun p ->
        List.map
          (fun (m : Amcast.Msg.t) -> m.id)
          (Harness.Run_result.sequence_of r p))
      (Topology.all_pids topo)
  in
  match seqs with
  | [] -> true
  | s0 :: rest ->
    List.for_all (fun sq -> List.equal Runtime.Msg_id.equal s0 sq) rest

(* ----- Baselines (failure-free: the model Figure 1 analyses) ----- *)

module RSkeen = Harness.Runner.Make (Amcast.Skeen)
module RRing = Harness.Runner.Make (Amcast.Ring)
module RScal = Harness.Runner.Make (Amcast.Scalable)
module RVia = Harness.Runner.Make (Amcast.Via_broadcast)
module RSeq = Harness.Runner.Make (Amcast.Sequencer)
module RFrz = Harness.Runner.Make (Amcast.Fritzke)

let prop_skeen_failure_free s =
  let topo = topology_of s in
  let r =
    RSkeen.run ~seed:s.seed ~latency:(latency_of s) topo (workload_of s topo)
  in
  assert_clean s (Harness.Checker.check_all ~expect_genuine:true r)

let prop_ring_failure_free s =
  let topo = topology_of s in
  let r =
    RRing.run ~seed:s.seed ~latency:(latency_of s) topo (workload_of s topo)
  in
  assert_clean s (Harness.Checker.check_all ~expect_genuine:true r)

(* Under [Util.within_budget]: over 15 000 scenarios drawn from
   [scenario_gen], the largest clean run took 3 283 events. *)
let prop_scalable_failure_free s =
  let topo = topology_of s in
  let r =
    Util.within_budget ~clean:3300 (fun ~max_steps ->
        RScal.run ~seed:s.seed ~latency:(latency_of s) ~max_steps topo
          (workload_of s topo))
  in
  assert_clean s (Harness.Checker.check_all ~expect_genuine:true r)

let prop_via_broadcast_failure_free s =
  let topo = topology_of s in
  let r =
    RVia.run ~seed:s.seed ~latency:(latency_of s) topo (workload_of s topo)
  in
  assert_clean s (Harness.Checker.check_all r)

let prop_sequencer_failure_free s =
  let topo = topology_of s in
  let r =
    RSeq.run ~seed:s.seed ~latency:(latency_of s) topo
      (workload_of ~broadcast:true s topo)
  in
  assert_clean s (Harness.Checker.check_all r)

let prop_fritzke_failure_free s =
  let topo = topology_of s in
  let r =
    RFrz.run ~seed:s.seed ~latency:(latency_of s) topo (workload_of s topo)
  in
  assert_clean s (Harness.Checker.check_all ~expect_genuine:true r)

(* ----- Data-structure properties ----- *)

let prop_event_queue_model ops =
  (* Random add/cancel/pop interleavings against a sorted-list model.
     [Cancel k] with [0 <= k < issued] targets the [k]-th handle [add]
     returned, which may be pending, already popped or already cancelled
     (the last two must be no-ops — the "cancel-after-pop" case); a
     larger [k] targets a handle above every one issued so far (unknown),
     and a negative [k] is passed through as is. Handles must strictly
     increase in insertion order. After every op the queue's [size] and
     [peek_time] must agree with the model. *)
  let q = Event_queue.create ~dummy:0 in
  let model = ref [] in
  (* pending (time_us, handle), insertion order *)
  let issued = ref [||] in
  let by_time = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) in
  let last () =
    let n = Array.length !issued in
    if n = 0 then -1 else !issued.(n - 1)
  in
  List.for_all
    (fun op ->
      let step_ok =
        match op with
        | `Add t ->
          let h =
            Event_queue.add q ~time:(Sim_time.of_us t) (Array.length !issued)
          in
          let increasing = h > last () in
          model := !model @ [ (t, h) ];
          issued := Array.append !issued [| h |];
          increasing
        | `Cancel k ->
          let n = Array.length !issued in
          let target =
            if k < 0 then k
            else if k < n then !issued.(k)
            else last () + 1 + (k - n)
          in
          Event_queue.cancel q target;
          model := List.filter (fun (_, h) -> h <> target) !model;
          true
        | `Pop -> (
          let expected =
            match by_time !model with
            | [] -> None
            | (t, h) :: _ ->
              model := List.filter (fun (_, h') -> h' <> h) !model;
              Some (t, h)
          in
          match (Event_queue.pop q, expected) with
          | None, None -> true
          | Some (t, v), Some (t', h) ->
            Sim_time.to_us t = t' && !issued.(v) = h
          | _ -> false)
      in
      let size_ok = Event_queue.size q = List.length !model in
      let peek_ok =
        Option.map Sim_time.to_us (Event_queue.peek_time q)
        = (match by_time !model with [] -> None | (t, _) :: _ -> Some t)
      in
      step_ok && size_ok && peek_ok)
    ops

let event_queue_op_gen ~add ~cancel ~pop =
  QCheck2.Gen.frequency
    [
      (add, QCheck2.Gen.map (fun t -> `Add t) (QCheck2.Gen.int_bound 1_000));
      ( cancel,
        QCheck2.Gen.map (fun k -> `Cancel k) (QCheck2.Gen.int_range (-2) 60)
      );
      (pop, QCheck2.Gen.pure `Pop);
    ]

let event_queue_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 80) (event_queue_op_gen ~add:4 ~cancel:2 ~pop:3))

(* Mostly cancellations: the queue spends its life skipping dead entries. *)
let event_queue_heavy_cancel_gen =
  QCheck2.Gen.(
    list_size (int_range 40 200) (event_queue_op_gen ~add:3 ~cancel:6 ~pop:2))

let prop_rng_int_bounds (seed, bound) =
  let rng = Rng.create seed in
  let bound = 1 + bound in
  List.for_all
    (fun v -> v >= 0 && v < bound)
    (List.init 100 (fun _ -> Rng.int rng bound))

let prop_msg_dest_normal dest =
  match dest with
  | [] -> true (* rejected separately *)
  | _ ->
    let id = Runtime.Msg_id.make ~origin:0 ~seq:0 in
    let m = Amcast.Msg.make ~id ~dest "x" in
    let d = m.Amcast.Msg.dest in
    List.sort_uniq Int.compare dest = d


(* ----- Causal cross-validation of the latency-degree metric ----- *)

(* On a single-message run the two independent implementations of the
   metric (runtime Lamport clocks vs causal-path reconstruction from the
   trace) must agree exactly. *)
let prop_causal_equals_lamport_single s =
  let topo = topology_of s in
  let groups = Topology.n_groups topo in
  let k = max 2 (min s.kmax groups) in
  let module RA1 = Harness.Runner.Make (Amcast.A1) in
  let dep = RA1.deploy ~seed:s.seed ~latency:(latency_of s) topo in
  let id =
    RA1.cast_at dep ~at:(Sim_time.of_ms 1)
      ~origin:(s.wseed mod Topology.n_processes topo)
      ~dest:(List.init k Fun.id) ()
  in
  let r = RA1.run_deployment dep in
  let causal = Harness.Causal.of_trace r.trace in
  let lamport = Harness.Metrics.latency_degree r id in
  let path = Harness.Causal.latency_degree causal id in
  lamport = path
  || QCheck2.Test.fail_reportf "scenario %s: lamport=%a path=%a"
       (pp_scenario s)
       Fmt.(option int)
       lamport
       Fmt.(option int)
       path

(* In general the clock measurement can only exceed the causal-path one:
   concurrent traffic inflates clocks but cannot create causal paths. *)
let prop_causal_lower_bounds_lamport s =
  let topo = topology_of s in
  let r =
    RA1.run ~seed:s.seed ~latency:(latency_of s) topo (workload_of s topo)
  in
  let causal = Harness.Causal.of_trace r.trace in
  List.for_all
    (fun (c : Harness.Run_result.cast_event) ->
      let id = c.msg.Amcast.Msg.id in
      match
        ( Harness.Metrics.latency_degree r id,
          Harness.Causal.latency_degree causal id )
      with
      | Some lam, Some path ->
        path <= lam
        || QCheck2.Test.fail_reportf
             "scenario %s: %a has path degree %d > lamport degree %d"
             (pp_scenario s) Runtime.Msg_id.pp id path lam
      | None, None -> true
      | Some _, None | None, Some _ ->
        QCheck2.Test.fail_reportf
          "scenario %s: %a delivered per one metric only" (pp_scenario s)
          Runtime.Msg_id.pp id)
    r.casts

(* ----- Analytic cost model ----- *)

let prop_complexity_orderings (k, d, n) =
  Harness.Complexity.multicast_ordering_holds ~k:(k + 2) ~d:(d + 1)
  && Harness.Complexity.broadcast_ordering_holds ~n:(n + 3)

(* ----- Stats ----- *)

let prop_stats_sane xs =
  match xs with
  | [] -> true
  | _ ->
    let xs = List.map float_of_int xs in
    let mean = Option.get (Harness.Stats.mean xs) in
    let lo, hi = Option.get (Harness.Stats.min_max xs) in
    let p50 = Option.get (Harness.Stats.median xs) in
    mean >= lo && mean <= hi && p50 >= lo && p50 <= hi
    && List.mem p50 xs


(* The headline result as a property: across random topologies, a probe
   broadcast landing in a warm round is delivered at latency degree 1. *)
let prop_a2_warm_degree_one (seed, groups, d) =
  let groups = 2 + groups and d = 1 + d in
  let topo = Topology.symmetric ~groups ~per_group:d in
  let all = Topology.all_groups topo in
  let module R = Harness.Runner.Make (Amcast.A2) in
  let warm_delivery =
    let dep = R.deploy ~seed ~latency:Util.crisp_latency topo in
    let warm = R.cast_at dep ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:all () in
    let r = R.run_deployment dep in
    List.find_map
      (fun (e : Harness.Run_result.delivery_event) ->
        if e.pid = 0 && Msg_id.equal e.msg.Amcast.Msg.id warm then Some e.at
        else None)
      r.deliveries
    |> Option.get
  in
  let dep = R.deploy ~seed ~latency:Util.crisp_latency topo in
  ignore (R.cast_at dep ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:all ());
  let probe =
    R.cast_at dep
      ~at:(Sim_time.add warm_delivery (Sim_time.of_ms 2))
      ~origin:0 ~dest:all ()
  in
  let r = R.run_deployment dep in
  match Harness.Metrics.latency_degree r probe with
  | Some 1 -> true
  | other ->
    QCheck2.Test.fail_reportf
      "warm probe at groups=%d d=%d seed=%d measured %a" groups d seed
      Fmt.(option int)
      other

(* ----- Direct substrate properties: consensus and reliable multicast ----- *)

(* Consensus under random proposals and (majority-preserving) crashes:
   uniform integrity + agreement, and termination for correct processes
   whenever any correct process proposed. *)
let prop_consensus_agreement (seed, d, crash) =
  let d = 3 + d in
  let topo = Topology.symmetric ~groups:1 ~per_group:d in
  let engine =
    Engine.create ~seed ~latency:Util.crisp_latency ~tag:Consensus.Paxos.tag
      topo
  in
  let decisions = ref [] in
  let endpoints = Hashtbl.create d in
  List.iter
    (fun pid ->
      ignore
        (Engine.spawn engine pid (fun services ->
             let detector =
               Fd.Detector.oracle ~delay:(Sim_time.of_ms 10) services
             in
             let ep =
               Consensus.Paxos.create ~services ~wrap:Fun.id
                 ~participants:(Topology.members topo 0)
                 ~detector ~timeout:(Sim_time.of_ms 60)
                 ~on_decide:(fun ~instance v ->
                   decisions := (pid, instance, v) :: !decisions)
                 ()
             in
             Hashtbl.replace endpoints pid ep;
             ( (),
               {
                 Engine.on_receive =
                   (fun ~src m -> Consensus.Paxos.handle ep ~src m);
               } ))))
    (Topology.all_pids topo);
  let rng = Rng.create (seed + 13) in
  let crashed =
    if crash then begin
      let victim = Rng.int rng d in
      Engine.schedule_crash ~drop:Engine.Lose_all_inflight engine
        ~at:(Sim_time.of_us (500 + Rng.int rng 3_000))
        victim;
      [ victim ]
    end
    else []
  in
  let proposers =
    List.filter (fun p -> Rng.bool rng || p = 0) (Topology.all_pids topo)
  in
  List.iter
    (fun pid ->
      Engine.at engine
        (Sim_time.of_us (200 + Rng.int rng 2_000))
        (fun () ->
          Consensus.Paxos.propose (Hashtbl.find endpoints pid) ~instance:1
            (Fmt.str "v%d" pid)))
    proposers;
  Engine.run engine;
  let ds =
    List.filter_map
      (fun (pid, i, v) -> if i = 1 then Some (pid, v) else None)
      !decisions
  in
  let values = List.sort_uniq compare (List.map snd ds) in
  let correct_proposer_exists =
    List.exists (fun p -> not (List.mem p crashed)) proposers
  in
  let correct_deciders =
    List.filter (fun p -> not (List.mem p crashed)) (List.map fst ds)
    |> List.sort_uniq Int.compare
  in
  (* Agreement: at most one decided value; integrity: a proposed one. *)
  (match values with
  | [] -> ()
  | [ v ] ->
    if not (List.exists (fun p -> Fmt.str "v%d" p = v) proposers) then
      QCheck2.Test.fail_reportf "non-proposed value decided: %s" v
  | vs ->
    QCheck2.Test.fail_reportf "disagreement: %a"
      Fmt.(list ~sep:(any ",") string)
      vs);
  (* Termination: if some correct process proposed, all correct decide. *)
  if correct_proposer_exists then begin
    let correct =
      List.filter (fun p -> not (List.mem p crashed)) (Topology.all_pids topo)
    in
    if List.length correct_deciders <> List.length correct then
      QCheck2.Test.fail_reportf
        "termination: %d of %d correct processes decided"
        (List.length correct_deciders)
        (List.length correct)
  end;
  true

(* Reliable multicast: integrity/validity/agreement under a randomly
   crashing caster with random in-flight loss. *)
let prop_rmcast_spec (seed, d, lossy) =
  let open Rmcast in
  let topo = Topology.symmetric ~groups:2 ~per_group:(1 + d) in
  let engine =
    Engine.create ~seed ~latency:Util.crisp_latency
      ~tag:Reliable_multicast.tag topo
  in
  let delivered = ref [] in
  let endpoints = Hashtbl.create 8 in
  List.iter
    (fun pid ->
      ignore
        (Engine.spawn engine pid (fun services ->
             let ep =
               Reliable_multicast.create ~services ~wrap:Fun.id
                 ~oracle_delay:(Sim_time.of_ms 10)
                 ~on_deliver:(fun ~id:_ ~origin:_ ~dest:_ _ ->
                   delivered := pid :: !delivered)
                 ()
             in
             Hashtbl.replace endpoints pid ep;
             ( (),
               {
                 Engine.on_receive =
                   (fun ~src m -> Reliable_multicast.handle ep ~src m);
               } ))))
    (Topology.all_pids topo);
  let rng = Rng.create (seed + 3) in
  let dest =
    List.filter
      (fun p -> Rng.bool rng || p = 1)
      (Topology.all_pids topo)
  in
  Engine.at engine (Sim_time.of_ms 1) (fun () ->
      Reliable_multicast.rmcast (Hashtbl.find endpoints 0)
        ~id:(Msg_id.make ~origin:0 ~seq:0)
        ~dest "x");
  if lossy then
    Engine.schedule_crash
      ~drop:(Engine.Lose_each_with_probability 0.7) engine
      ~at:(Sim_time.of_us (1_050 + Rng.int rng 500))
      0;
  Engine.run engine;
  let deliverers = List.sort_uniq Int.compare !delivered in
  (* Integrity: only addressees, at most once each. *)
  if List.length deliverers <> List.length !delivered then
    QCheck2.Test.fail_reportf "duplicate R-Delivery";
  if List.exists (fun p -> not (List.mem p dest)) deliverers then
    QCheck2.Test.fail_reportf "non-addressee delivered";
  (* Agreement: if any correct process delivered, all correct addressees
     must have (the caster 0 may be faulty). *)
  let correct_deliverer = List.exists (fun p -> p <> 0) deliverers in
  let correct_addressees = List.filter (fun p -> p <> 0 || not lossy) dest in
  if correct_deliverer then
    List.for_all (fun p -> List.mem p deliverers) correct_addressees
    || QCheck2.Test.fail_reportf "agreement violated"
  else if not lossy then
    (* Validity: correct caster => every correct addressee delivers. *)
    List.for_all (fun p -> List.mem p deliverers) dest
    || QCheck2.Test.fail_reportf "validity violated"
  else true

(* A2 causal chains: phase-by-phase casts where each next message is cast
   after the previous one was delivered at its origin — causal delivery
   order must hold. *)
let prop_a2_causal_chain (seed, chain_len) =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let module R = Harness.Runner.Make (Amcast.A2) in
  let d = R.deploy ~seed ~latency:Util.crisp_latency topo in
  let rng = Rng.create (seed + 5) in
  let rec phase i =
    if i < 1 + chain_len then begin
      let at =
        Sim_time.add
          (Runtime.Engine.now (R.engine d))
          (Sim_time.of_ms (1 + Rng.int rng 30))
      in
      ignore (R.cast_at d ~at ~origin:(Rng.int rng 4) ~dest:[ 0; 1 ] ());
      ignore (R.run_deployment d);
      phase (i + 1)
    end
  in
  phase 0;
  let r = R.run_deployment d in
  Harness.Checker.check_all r = []
  && Harness.Checker.causal_delivery_order r = []

(* ----- Modern baselines: differentials against their classic twins ----- *)

module RWb = Harness.Runner.Make (Amcast.Whitebox)
module RFx = Harness.Runner.Make (Amcast.Flexcast)

(* FlexCast without an overlay degenerates to plain Skeen: every group is
   adjacent, path timestamps stay zero, stamps flow directly. On crisp
   (deterministic) latencies the two must produce identical per-process
   delivery sequences — not merely equivalent orders, the same sequences. *)
let prop_flexcast_clique_equals_skeen s =
  let topo = topology_of s in
  let w = workload_of s topo in
  let seq_of r p =
    List.map
      (fun (m : Amcast.Msg.t) -> m.id)
      (Harness.Run_result.sequence_of r p)
  in
  let rs = RSkeen.run ~seed:s.seed ~latency:Util.crisp_latency topo w in
  let rf = RFx.run ~seed:s.seed ~latency:Util.crisp_latency topo w in
  ignore (assert_clean s (Harness.Checker.check_all ~expect_genuine:true rf));
  List.for_all
    (fun p ->
      List.equal Runtime.Msg_id.equal (seq_of rs p) (seq_of rf p)
      || QCheck2.Test.fail_reportf
           "scenario %s: p%d delivered [%a] under flexcast, [%a] under skeen"
           (pp_scenario s) p
           Fmt.(list ~sep:comma Runtime.Msg_id.pp)
           (seq_of rf p)
           Fmt.(list ~sep:comma Runtime.Msg_id.pp)
           (seq_of rs p))
    (Topology.all_pids topo)

(* Whitebox against A1 on the same seeded grid: the checker verdict is
   identical (clean, including genuineness) and every process delivers the
   same set of messages — the global orders may differ (convoy timestamps
   vs consensus rounds), but never the delivered sets. *)
let prop_whitebox_verdict_equals_a1 s =
  let topo = topology_of s in
  let w = workload_of s topo in
  let ra = RA1.run ~seed:s.seed ~latency:(latency_of s) topo w in
  let rw = RWb.run ~seed:s.seed ~latency:(latency_of s) topo w in
  let va = Harness.Checker.check_all ~expect_genuine:true ra in
  let vw = Harness.Checker.check_all ~expect_genuine:true rw in
  ignore (assert_clean s va);
  (va = vw
  ||
  QCheck2.Test.fail_reportf "scenario %s: whitebox verdict differs:@.%a"
    (pp_scenario s)
    Fmt.(list ~sep:(any "@.") string)
    vw)
  && List.for_all
       (fun p ->
         let ids r =
           List.sort Runtime.Msg_id.compare
             (List.map
                (fun (m : Amcast.Msg.t) -> m.Amcast.Msg.id)
                (Harness.Run_result.sequence_of r p))
         in
         List.equal Runtime.Msg_id.equal (ids ra) (ids rw)
         || QCheck2.Test.fail_reportf
              "scenario %s: p%d delivered different sets under whitebox"
              (pp_scenario s) p)
       (Topology.all_pids topo)

(* FlexCast genuineness over a hub, trace-level: when every cast stays
   inside the {hub, first-spoke} pair, the remaining spokes neither send a
   single protocol message nor deliver anything — they are not even
   relays, since no route to groups 0 or 1 passes through them. *)
let prop_flexcast_offpath_groups_silent (seed, groups, per_group, n_msgs) =
  let topo = Topology.symmetric ~groups ~per_group in
  let ov = Overlay.hub ~groups in
  let config =
    { Amcast.Protocol.Config.default with Amcast.Protocol.Config.overlay = Some ov }
  in
  let onpath =
    Topology.members topo 0 @ Topology.members topo 1
  in
  let w =
    Harness.Workload.generate ~rng:(Rng.create seed) ~topology:topo ~n:n_msgs
      ~dest:(Harness.Workload.Fixed_groups [ 0; 1 ])
      ~arrival:(`Poisson (Sim_time.of_ms 20))
      ~origins:onpath ()
  in
  let r =
    RFx.run ~seed ~latency:(Overlay.to_latency ov) ~config topo w
  in
  let offpath p = not (List.mem p onpath) in
  List.iter
    (fun entry ->
      match entry with
      | Runtime.Trace.Send { src; tag; _ } when offpath src ->
        QCheck2.Test.fail_reportf "off-path p%d sent a %s message" src tag
      | Runtime.Trace.Deliver { pid; _ } when offpath pid ->
        QCheck2.Test.fail_reportf "off-path p%d delivered" pid
      | _ -> ())
    (Runtime.Trace.entries r.trace);
  Harness.Checker.check_all ~expect_genuine:true ~overlay:ov r = []

let modern_scenario_gen =
  QCheck2.Gen.(
    quad (int_bound 1_000_000) (int_range 3 5) (int_range 1 3) (int_range 1 8))

let suites =
  [
    ( "properties",
      [
        Util.qcheck_case ~count:25 ~name:"a1: safety, failure-free"
          scenario_gen prop_a1_failure_free;
        Util.qcheck_case ~count:25 ~name:"a1: safety under crashes"
          scenario_gen prop_a1_with_crashes;
        Util.qcheck_case ~count:25 ~name:"a1: multi-group degree >= 2"
          scenario_gen prop_a1_multigroup_degree_at_least_two;
        Util.qcheck_case ~count:10 ~name:"a1: determinism" scenario_gen
          prop_a1_deterministic;
        Util.qcheck_case ~count:25 ~name:"a2: safety + quiescence"
          scenario_gen prop_a2_failure_free;
        Util.qcheck_case ~count:25 ~name:"a2: safety under crashes"
          scenario_gen prop_a2_with_crashes;
        Util.qcheck_case ~count:15 ~name:"a2: identical sequences"
          scenario_gen prop_a2_identical_sequences;
        Util.qcheck_case ~count:15 ~name:"skeen: safety, failure-free"
          scenario_gen prop_skeen_failure_free;
        Util.qcheck_case ~count:15 ~name:"ring: safety, failure-free"
          scenario_gen prop_ring_failure_free;
        Util.qcheck_case ~count:15 ~name:"scalable: safety, failure-free"
          scenario_gen prop_scalable_failure_free;
        Util.qcheck_case ~count:15 ~name:"via-broadcast: safety"
          scenario_gen prop_via_broadcast_failure_free;
        Util.qcheck_case ~count:15 ~name:"sequencer: safety, failure-free"
          scenario_gen prop_sequencer_failure_free;
        Util.qcheck_case ~count:15 ~name:"fritzke: safety, failure-free"
          scenario_gen prop_fritzke_failure_free;
        Util.qcheck_case ~count:100 ~name:"event queue matches model"
          event_queue_ops_gen prop_event_queue_model;
        Util.qcheck_case ~count:100
          ~name:"event queue matches model (heavy cancellation)"
          event_queue_heavy_cancel_gen prop_event_queue_model;
        Util.qcheck_case ~count:50 ~name:"rng bounds"
          QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000))
          prop_rng_int_bounds;
        Util.qcheck_case ~count:100 ~name:"msg dest normalisation"
          QCheck2.Gen.(list_size (int_range 0 6) (int_bound 5))
          prop_msg_dest_normal;
        Util.qcheck_case ~count:20
          ~name:"causal path degree = lamport degree (single message)"
          scenario_gen prop_causal_equals_lamport_single;
        Util.qcheck_case ~count:20
          ~name:"causal path degree <= lamport degree" scenario_gen
          prop_causal_lower_bounds_lamport;
        Util.qcheck_case ~count:50 ~name:"complexity orderings"
          QCheck2.Gen.(triple (int_bound 4) (int_bound 3) (int_bound 20))
          prop_complexity_orderings;
        Util.qcheck_case ~count:100 ~name:"stats sanity"
          QCheck2.Gen.(list_size (int_range 0 30) (int_range (-50) 50))
          prop_stats_sane;
        Util.qcheck_case ~count:30 ~name:"consensus: agreement + termination"
          QCheck2.Gen.(triple (int_bound 100_000) (int_bound 2) bool)
          prop_consensus_agreement;
        Util.qcheck_case ~count:40 ~name:"rmcast: specification"
          QCheck2.Gen.(triple (int_bound 100_000) (int_bound 2) bool)
          prop_rmcast_spec;
        Util.qcheck_case ~count:10 ~name:"a2: causal chains"
          QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 3))
          prop_a2_causal_chain;
        Util.qcheck_case ~count:15 ~name:"a2: warm rounds are degree 1"
          QCheck2.Gen.(triple (int_bound 100_000) (int_bound 2) (int_bound 2))
          prop_a2_warm_degree_one;
        Util.qcheck_case ~count:15
          ~name:"flexcast on a clique = skeen, sequence-identical"
          scenario_gen prop_flexcast_clique_equals_skeen;
        Util.qcheck_case ~count:15 ~name:"whitebox: verdicts identical to a1"
          scenario_gen prop_whitebox_verdict_equals_a1;
        Util.qcheck_case ~count:15
          ~name:"flexcast on a hub: off-path groups are silent"
          modern_scenario_gen prop_flexcast_offpath_groups_silent;
      ] );
  ]
