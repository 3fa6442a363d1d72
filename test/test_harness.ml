open Des
open Net

let test_workload_single () =
  match
    Harness.Workload.single ~at:(Sim_time.of_ms 3) ~origin:2 ~dest:[ 1 ] ()
  with
  | [ c ] ->
    Alcotest.(check int) "origin" 2 c.Harness.Workload.origin;
    Alcotest.(check (list int)) "dest" [ 1 ] c.dest;
    Alcotest.(check int) "time" 3_000 (Sim_time.to_us c.at)
  | _ -> Alcotest.fail "expected one cast"

let test_workload_generate_counts () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let rng = Rng.create 1 in
  let w =
    Harness.Workload.generate ~rng ~topology:topo ~n:50
      ~dest:(Harness.Workload.Random_groups 2)
      ~arrival:(`Every (Sim_time.of_ms 5))
      ()
  in
  Alcotest.(check int) "n casts" 50 (List.length w);
  List.iter
    (fun (c : Harness.Workload.cast) ->
      if c.dest = [] then Alcotest.fail "empty dest";
      if List.length c.dest > 2 then Alcotest.fail "dest too large";
      if c.origin < 0 || c.origin >= 6 then Alcotest.fail "bad origin")
    w;
  (* Fixed spacing: strictly increasing times. *)
  let times = List.map (fun (c : Harness.Workload.cast) -> c.at) w in
  let rec increasing = function
    | a :: (b :: _ as rest) -> Sim_time.compare a b < 0 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "increasing times" true (increasing times)

let test_workload_poisson_positive_gaps () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let rng = Rng.create 2 in
  let w =
    Harness.Workload.generate ~rng ~topology:topo ~n:100
      ~dest:Harness.Workload.To_all_groups
      ~arrival:(`Poisson (Sim_time.of_ms 10))
      ()
  in
  let times = List.map (fun (c : Harness.Workload.cast) -> c.at) w in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> Sim_time.compare a b <= 0 && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "nondecreasing" true (nondecreasing times)

let test_workload_origins_restricted () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let rng = Rng.create 3 in
  let w =
    Harness.Workload.generate ~rng ~topology:topo ~n:20
      ~dest:Harness.Workload.To_all_groups
      ~arrival:(`Every (Sim_time.of_ms 1))
      ~origins:[ 1; 3 ] ()
  in
  List.iter
    (fun (c : Harness.Workload.cast) ->
      if not (List.mem c.origin [ 1; 3 ]) then Alcotest.fail "bad origin")
    w

(* The checker must actually detect violations: feed it a hand-built bad
   run. A violation-blind checker would silently bless every protocol. *)
let bad_run () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let id0 = Runtime.Msg_id.make ~origin:0 ~seq:0 in
  let id1 = Runtime.Msg_id.make ~origin:1 ~seq:0 in
  let m0 = Amcast.Msg.make ~id:id0 ~dest:[ 0; 1 ] "a" in
  let m1 = Amcast.Msg.make ~id:id1 ~dest:[ 0; 1 ] "b" in
  let mk_del pid msg at lc =
    { Harness.Run_result.pid; msg; at = Sim_time.of_ms at; lc }
  in
  Harness.Run_result.make ~topology:topo
    ~casts:
      [
        { msg = m0; origin = 0; at = Sim_time.of_ms 1; lc = 0 };
        { msg = m1; origin = 1; at = Sim_time.of_ms 1; lc = 0 };
      ]
    ~deliveries:
      [
        (* p0 delivers m0 then m1; p1 delivers m1 then m0: order violation.
           Also p0 delivers m0 twice: integrity violation. *)
        mk_del 0 m0 2 1;
        mk_del 0 m0 3 1;
        mk_del 0 m1 4 1;
        mk_del 1 m1 2 1;
        mk_del 1 m0 3 1;
      ]
    ~crashed:[]
    ~trace:(Runtime.Trace.create ())
    ~inter_group_msgs:0 ~intra_group_msgs:0 ~end_time:(Sim_time.of_ms 10)
    ~drained:true ~events_executed:0 ()

let test_checker_detects_duplicate () =
  let r = bad_run () in
  Alcotest.(check bool) "duplicate detected" true
    (Harness.Checker.uniform_integrity r <> [])

let test_checker_detects_order_violation () =
  let r = bad_run () in
  Alcotest.(check bool) "prefix violation detected" true
    (Harness.Checker.uniform_prefix_order r <> [])

let test_checker_detects_missing_delivery () =
  let r = bad_run () in
  (* m0 delivered somewhere, but p1 (a correct addressee) never got it. *)
  let r =
    {
      r with
      Harness.Run_result.deliveries =
        [ { pid = 0; msg = (List.hd r.casts).msg; at = Sim_time.of_ms 2; lc = 1 } ];
      index_memo = None;
    }
  in
  Alcotest.(check bool) "agreement violation detected" true
    (Harness.Checker.uniform_agreement r <> []);
  Alcotest.(check bool) "validity violation detected" true
    (Harness.Checker.validity r <> [])

let test_checker_accepts_clean_run () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let id0 = Runtime.Msg_id.make ~origin:0 ~seq:0 in
  let m0 = Amcast.Msg.make ~id:id0 ~dest:[ 0; 1 ] "a" in
  let r =
    Harness.Run_result.make ~topology:topo
      ~casts:[ { msg = m0; origin = 0; at = Sim_time.of_ms 1; lc = 0 } ]
      ~deliveries:
        [
          { pid = 0; msg = m0; at = Sim_time.of_ms 2; lc = 2 };
          { pid = 1; msg = m0; at = Sim_time.of_ms 2; lc = 2 };
        ]
      ~crashed:[]
      ~trace:(Runtime.Trace.create ())
      ~inter_group_msgs:2 ~intra_group_msgs:0 ~end_time:(Sim_time.of_ms 10)
      ~drained:true ~events_executed:0 ()
  in
  Util.check_no_violations "clean" (Harness.Checker.check_all r)

let test_metrics_latency_degree () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let id0 = Runtime.Msg_id.make ~origin:0 ~seq:0 in
  let m0 = Amcast.Msg.make ~id:id0 ~dest:[ 0; 1 ] "a" in
  let r =
    Harness.Run_result.make ~topology:topo
      ~casts:[ { msg = m0; origin = 0; at = Sim_time.of_ms 1; lc = 3 } ]
      ~deliveries:
        [
          { pid = 0; msg = m0; at = Sim_time.of_ms 2; lc = 5 };
          { pid = 1; msg = m0; at = Sim_time.of_ms 4; lc = 4 };
        ]
      ~crashed:[]
      ~trace:(Runtime.Trace.create ())
      ~inter_group_msgs:0 ~intra_group_msgs:0 ~end_time:(Sim_time.of_ms 10)
      ~drained:true ~events_executed:0 ()
  in
  Alcotest.(check (option int)) "max over deliverers" (Some 2)
    (Harness.Metrics.latency_degree r id0);
  Alcotest.(check (option int)) "wall clock to last delivery"
    (Some 3_000)
    (Option.map Sim_time.to_us (Harness.Metrics.delivery_latency r id0))

let test_lclock_module () =
  Alcotest.(check int) "local keeps" 5 (Lclock.on_local 5);
  Alcotest.(check int) "intra send keeps" 5
    (Lclock.on_send ~same_group:true 5);
  Alcotest.(check int) "inter send ticks" 6
    (Lclock.on_send ~same_group:false 5);
  Alcotest.(check int) "receive maxes" 9 (Lclock.on_receive 4 ~carried:9);
  Alcotest.(check int) "receive keeps own" 9 (Lclock.on_receive 9 ~carried:4);
  Alcotest.(check (option int)) "degree" (Some 2)
    (Lclock.latency_degree ~cast:3 ~deliveries:[ 4; 5; 4 ]);
  Alcotest.(check (option int)) "undelivered" None
    (Lclock.latency_degree ~cast:3 ~deliveries:[])

let test_msg_module () =
  let id = Runtime.Msg_id.make ~origin:1 ~seq:0 in
  let m = Amcast.Msg.make ~id ~dest:[ 2; 0; 2 ] "x" in
  Alcotest.(check (list int)) "dest normalised" [ 0; 2 ] m.dest;
  Alcotest.(check bool) "single group" false (Amcast.Msg.is_single_group m);
  Alcotest.check_raises "empty dest rejected"
    (Invalid_argument "Msg.make: empty destination set") (fun () ->
      ignore (Amcast.Msg.make ~id ~dest:[] "x"));
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  Alcotest.(check (list int)) "dest pids" [ 0; 1; 4; 5 ]
    (Amcast.Msg.dest_pids topo m);
  Alcotest.(check bool) "ts order: ts dominates" true
    (Amcast.Msg.compare_ts_id (1, m) (2, m) < 0);
  let id2 = Runtime.Msg_id.make ~origin:0 ~seq:0 in
  let m2 = Amcast.Msg.make ~id:id2 ~dest:[ 0 ] "y" in
  Alcotest.(check bool) "ts order: id breaks ties" true
    (Amcast.Msg.compare_ts_id (1, m2) (1, m) < 0)


let test_stats_basics () =
  let xs = [ 4.; 1.; 3.; 2.; 5. ] in
  Alcotest.(check (option (float 1e-9))) "mean" (Some 3.) (Harness.Stats.mean xs);
  Alcotest.(check (option (float 1e-9))) "median" (Some 3.)
    (Harness.Stats.median xs);
  Alcotest.(check (option (float 1e-9))) "p100 = max" (Some 5.)
    (Harness.Stats.percentile 100. xs);
  Alcotest.(check (option (float 1e-9))) "p1 = min" (Some 1.)
    (Harness.Stats.percentile 1. xs);
  Alcotest.(check (option (float 1e-6))) "stddev"
    (Some (sqrt 2.5))
    (Harness.Stats.stddev xs);
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "min max"
    (Some (1., 5.))
    (Harness.Stats.min_max xs);
  Alcotest.(check (option (float 0.))) "empty mean" None (Harness.Stats.mean []);
  Alcotest.(check (option (float 0.))) "singleton stddev" None
    (Harness.Stats.stddev [ 1. ])

let test_stats_histogram () =
  let h = Harness.Stats.histogram ~buckets:2 [ 0.; 1.; 9.; 10. ] in
  Alcotest.(check int) "buckets" 2 (List.length h);
  Alcotest.(check int) "total count preserved" 4
    (List.fold_left (fun acc (_, c) -> acc + c) 0 h);
  Alcotest.(check (list (pair (float 0.) int))) "empty input" []
    (Harness.Stats.histogram ~buckets:3 [])

let test_complexity_formulas () =
  (* Spot values of the closed forms. *)
  let open Harness.Complexity in
  Alcotest.(check int) "ring degree" 4 (ring ~k:3 ~d:2).latency_degree;
  Alcotest.(check int) "scalable degree" 4 (scalable ~k:3 ~d:2).latency_degree;
  Alcotest.(check int) "a1 degree" 2 (a1 ~k:3 ~d:2).latency_degree;
  Alcotest.(check int) "a2 degree" 1 (a2 ~n:6).latency_degree;
  Alcotest.(check int) "a1 = fritzke msgs" (fritzke ~k:3 ~d:2).inter_msgs
    (a1 ~k:3 ~d:2).inter_msgs;
  (* The orderings Figure 1 claims hold across a parameter sweep. *)
  List.iter
    (fun (k, d) ->
      Alcotest.(check bool)
        (Fmt.str "multicast ordering at k=%d d=%d" k d)
        true
        (Harness.Complexity.multicast_ordering_holds ~k ~d))
    [ (2, 1); (2, 2); (3, 2); (4, 3); (5, 4) ];
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Fmt.str "broadcast ordering at n=%d" n)
        true
        (Harness.Complexity.broadcast_ordering_holds ~n))
    [ 4; 6; 9; 16 ]

(* Figure 1 cells with no exact closed form, as literals: per algorithm,
   (latency degree, inter-group messages) in matrix order. [10] measures
   degree 3 at k = 2 (its closed form says 4); [1] is measured on its
   saturated stream; 1(b) is not pinned to closed forms. *)
let figure1_literals =
  [
    ( ("figure-1a", "scalable"),
      [ (3, 9); (3, 30); (3, 63); (4, 84); (4, 162) ] );
    (("figure-1a", "detmerge"), [ (1, 1); (1, 3); (1, 4); (1, 4); (1, 6) ]);
    (("figure-1b", "optimistic"), [ (2, 4); (2, 8); (2, 12); (2, 12) ]);
    (("figure-1b", "sequencer"), [ (2, 12); (2, 32); (2, 60); (2, 66) ]);
    (("figure-1b", "a2-cold"), [ (2, 16); (2, 48); (2, 96); (2, 108) ]);
    (("figure-1b", "a2-warm"), [ (1, 24); (1, 72); (1, 144); (1, 162) ]);
    (("figure-1b", "detmerge"), [ (1, 2); (1, 4); (1, 6); (1, 6) ]);
  ]

let test_complexity_matches_measured () =
  (* Every Figure 1 cell, measured as bench/main.exe prints it. Where the
     closed form is exact in a failure-free single-message run (ring,
     fritzke and A1), both counts must meet it, not just asymptotically;
     every other cell must meet its literal. *)
  let module F1 = Harness.Figure1 in
  let cells = F1.figure_1a @ F1.figure_1b in
  Alcotest.(check int) "matrix cells" 45 (List.length cells);
  let counts = Alcotest.(pair (option int) int) in
  let measure c =
    let m = F1.counts c in
    (m.degree, m.inter_msgs)
  in
  let closed =
    List.filter
      (fun (c : F1.cell) -> List.mem c.algorithm [ "ring"; "fritzke"; "a1" ])
      cells
  in
  Alcotest.(check int) "closed-form cells" 15 (List.length closed);
  List.iter
    (fun (c : F1.cell) ->
      let f = Option.get c.formula in
      Alcotest.check counts
        (Fmt.str "%s %s k=%d d=%d" c.figure c.algorithm c.k c.d)
        (Some f.latency_degree, f.inter_msgs)
        (measure c))
    closed;
  List.iter
    (fun ((figure, algorithm), expected) ->
      Alcotest.check (Alcotest.list counts)
        (Fmt.str "%s %s" figure algorithm)
        (List.map (fun (deg, inter) -> (Some deg, inter)) expected)
        (List.filter_map
           (fun (c : F1.cell) ->
             if c.figure = figure && c.algorithm = algorithm then
               Some (measure c)
             else None)
           cells))
    figure1_literals;
  (* A1 cast at 1 ms instead of the matrix's 300 ms meets the same form. *)
  let module R = Harness.Runner.Make (Amcast.A1) in
  List.iter
    (fun (k, d) ->
      let topo = Topology.symmetric ~groups:4 ~per_group:d in
      let dep = R.deploy ~latency:Util.crisp_latency topo in
      let origin = List.hd (Topology.members topo (k - 1)) in
      ignore
        (R.cast_at dep ~at:(Sim_time.of_ms 1) ~origin
           ~dest:(List.init k Fun.id) ());
      let r = R.run_deployment dep in
      Alcotest.(check int)
        (Fmt.str "A1 msgs at k=%d d=%d" k d)
        (Harness.Complexity.a1 ~k ~d).inter_msgs
        r.inter_group_msgs)
    [ (2, 1); (2, 2); (3, 2); (4, 2) ]

let test_causal_single_message_agrees () =
  (* On a single-message run, the causal-path degree and the Lamport-clock
     degree must be identical. *)
  let module R = Harness.Runner.Make (Amcast.A1) in
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let dep = R.deploy ~latency:Util.crisp_latency topo in
  let id = R.cast_at dep ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0; 1; 2 ] () in
  let r = R.run_deployment dep in
  let causal = Harness.Causal.of_trace r.trace in
  Alcotest.(check (option int)) "agree"
    (Harness.Metrics.latency_degree r id)
    (Harness.Causal.latency_degree causal id)

let test_causal_precedence () =
  (* m2 is cast by a process after it delivered m1: causally ordered. *)
  let module R = Harness.Runner.Make (Amcast.A2) in
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let dep = R.deploy ~latency:Util.crisp_latency topo in
  let m1 = R.cast_at dep ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0; 1 ] () in
  ignore (R.run_deployment dep);
  let m2 =
    R.cast_at dep
      ~at:(Sim_time.add (Runtime.Engine.now (R.engine dep)) (Sim_time.of_ms 5))
      ~origin:1 ~dest:[ 0; 1 ] ()
  in
  let r = R.run_deployment dep in
  let causal = Harness.Causal.of_trace r.trace in
  Alcotest.(check bool) "m1 precedes m2" true
    (Harness.Causal.causally_precedes causal m1 m2);
  Alcotest.(check bool) "m2 does not precede m1" false
    (Harness.Causal.causally_precedes causal m2 m1)

let test_trace_render () =
  let module R = Harness.Runner.Make (Amcast.Skeen) in
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let r =
    R.run ~latency:Util.crisp_latency topo
      (Harness.Workload.single ~at:(Sim_time.of_ms 1) ~origin:0
         ~dest:[ 0; 1 ] ())
  in
  let s = Harness.Trace_render.timeline ~topology:topo r.trace in
  Alcotest.(check bool) "mentions the cast" true
    (Util.contains s "CAST m0.0");
  Alcotest.(check bool) "mentions a delivery" true
    (Util.contains s "DLVR m0.0");
  let truncated =
    Harness.Trace_render.timeline ~max_rows:2 ~topology:topo r.trace
  in
  Alcotest.(check bool) "truncation marker" true
    (Util.contains truncated "truncated")

let test_campaign_small () =
  let summary =
    Harness.Campaign.run
      (module Amcast.A1)
      ~expect_genuine:true ~with_crashes:true ~seed:17 ~runs:6 ()
  in
  Alcotest.(check int) "all clean" summary.runs summary.clean;
  Alcotest.(check bool) "delivered something" true
    (summary.delivered_total > 0)

let test_campaign_reports_scenarios () =
  (* The random scenario generator stays within its documented bounds. *)
  let rng = Rng.create 23 in
  for _ = 1 to 100 do
    let s = Harness.Campaign.random_scenario rng () in
    if s.groups < 2 || s.groups > 4 then Alcotest.fail "groups out of range";
    if s.per_group < 1 || s.per_group > 3 then
      Alcotest.fail "per_group out of range";
    if s.n_msgs < 1 || s.n_msgs > 12 then Alcotest.fail "n_msgs out of range"
  done

(* [deliveries_of] reads the index; it must return exactly the events, in
   exactly the order, that filtering the whole delivery list returns. *)
let test_deliveries_of_matches_filter () =
  let topo = Topology.symmetric ~groups:3 ~per_group:3 in
  let w dest =
    Harness.Workload.generate ~rng:(Rng.create 5) ~topology:topo ~n:60 ~dest
      ~arrival:(`Poisson (Sim_time.of_ms 4))
      ()
  in
  let faults =
    [ Harness.Runner.crash ~drop:Runtime.Engine.Lose_all_inflight
        ~at:(Sim_time.of_ms 60) 4 ]
  in
  let module RA1 = Harness.Runner.Make (Amcast.A1) in
  let module RA2 = Harness.Runner.Make (Amcast.A2) in
  List.iter
    (fun (name, (r : Harness.Run_result.t)) ->
      Alcotest.(check bool) (name ^ " has a crash") true (r.crashed <> []);
      let never = Runtime.Msg_id.make ~origin:0 ~seq:10_000 in
      List.iter
        (fun id ->
          let filtered =
            List.filter
              (fun (d : Harness.Run_result.delivery_event) ->
                Runtime.Msg_id.equal d.msg.Amcast.Msg.id id)
              r.deliveries
          in
          if not (List.equal ( == ) filtered
                    (Harness.Run_result.deliveries_of r id))
          then
            Alcotest.failf "%s: deliveries_of %a differs from the filter"
              name Runtime.Msg_id.pp id)
        (never
        :: List.map
             (fun (c : Harness.Run_result.cast_event) -> c.msg.Amcast.Msg.id)
             r.casts))
    [
      ("a1", RA1.run ~seed:3 ~faults topo (w (Random_groups 3)));
      ("a2", RA2.run ~seed:3 ~faults topo (w To_all_groups));
    ]

(* The crashed set comes from the engine, not from the trace's [Crash]
   entries: with recording off, a crashed process must still count as
   faulty, or the liveness checks flag the messages it never delivered. *)
let test_crashed_without_trace () =
  let module R = Harness.Runner.Make (Amcast.A1) in
  let topo = Topology.symmetric ~groups:3 ~per_group:3 in
  let run record_trace =
    let w =
      Harness.Workload.generate ~rng:(Rng.create 5) ~topology:topo ~n:60
        ~dest:(Harness.Workload.Random_groups 2)
        ~arrival:(`Poisson (Sim_time.of_ms 10))
        ()
    in
    R.run ~seed:5 ~record_trace
      ~faults:
        [
          Harness.Runner.crash ~drop:Runtime.Engine.Lose_all_inflight
            ~at:(Sim_time.of_ms 150) 1;
        ]
      topo w
  in
  let traced = run true and untraced = run false in
  Alcotest.(check (list int)) "crashed, trace on" [ 1 ] traced.crashed;
  Alcotest.(check (list int)) "crashed, trace off" [ 1 ] untraced.crashed;
  Util.check_no_violations "trace on" (Harness.Checker.check_all traced);
  Util.check_no_violations "trace off" (Harness.Checker.check_all untraced);
  (* Cast and delivery recording (clock ticks included) must not depend on
     whether the trace is kept. *)
  let row pid (msg : Amcast.Msg.t) at lc =
    ((pid, Runtime.Msg_id.to_string msg.id), (Sim_time.to_us at, lc))
  in
  let casts (r : Harness.Run_result.t) =
    List.map
      (fun (c : Harness.Run_result.cast_event) -> row c.origin c.msg c.at c.lc)
      r.casts
  in
  let deliveries (r : Harness.Run_result.t) =
    List.map
      (fun (d : Harness.Run_result.delivery_event) -> row d.pid d.msg d.at d.lc)
      r.deliveries
  in
  let rows = Alcotest.(list (pair (pair int string) (pair int int))) in
  Alcotest.(check bool) "casts recorded" true (casts traced <> []);
  Alcotest.(check bool) "deliveries recorded" true (deliveries traced <> []);
  Alcotest.check rows "casts, trace on = off" (casts traced) (casts untraced);
  Alcotest.check rows "deliveries, trace on = off" (deliveries traced)
    (deliveries untraced)

let suites =
  [
    ( "harness",
      [
        Alcotest.test_case "workload single" `Quick test_workload_single;
        Alcotest.test_case "workload generate" `Quick
          test_workload_generate_counts;
        Alcotest.test_case "workload poisson" `Quick
          test_workload_poisson_positive_gaps;
        Alcotest.test_case "workload origins" `Quick
          test_workload_origins_restricted;
        Alcotest.test_case "checker: duplicates" `Quick
          test_checker_detects_duplicate;
        Alcotest.test_case "checker: order violation" `Quick
          test_checker_detects_order_violation;
        Alcotest.test_case "checker: missing delivery" `Quick
          test_checker_detects_missing_delivery;
        Alcotest.test_case "checker: clean run accepted" `Quick
          test_checker_accepts_clean_run;
        Alcotest.test_case "metrics: latency degree" `Quick
          test_metrics_latency_degree;
        Alcotest.test_case "deliveries_of = delivery-list filter" `Quick
          test_deliveries_of_matches_filter;
        Alcotest.test_case "lclock rules" `Quick test_lclock_module;
        Alcotest.test_case "msg module" `Quick test_msg_module;
        Alcotest.test_case "stats basics" `Quick test_stats_basics;
        Alcotest.test_case "stats histogram" `Quick test_stats_histogram;
        Alcotest.test_case "complexity formulas" `Quick
          test_complexity_formulas;
        Alcotest.test_case "complexity matches measured (Figure 1)" `Quick
          test_complexity_matches_measured;
        Alcotest.test_case "causal agrees on single message" `Quick
          test_causal_single_message_agrees;
        Alcotest.test_case "causal precedence" `Quick test_causal_precedence;
        Alcotest.test_case "trace renderer" `Quick test_trace_render;
        Alcotest.test_case "campaign: small soak" `Quick test_campaign_small;
        Alcotest.test_case "campaign: scenario bounds" `Quick
          test_campaign_reports_scenarios;
        Alcotest.test_case "crashed set without the trace" `Quick
          test_crashed_without_trace;
      ] );
  ]
