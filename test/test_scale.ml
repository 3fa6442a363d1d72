(* Scale-substrate tests: the slab containers against Hashtbl models
   under random operation schedules, sharded-campaign summary identity
   across domain counts, the ring finalized-head livelock regression,
   and the A1 steady-state allocation budget the slab refactor exists
   to protect. *)

open Net

(* ------------------------------------------------------------------ *)
(* Slab.Row vs an (int, int) Hashtbl model. Row.set overwrites like
   Hashtbl.replace; presence, count-of-distinct-keys and lookups must
   agree after every operation, and a released row must come back from
   the pool fully cleared. *)

let row_width = 16

let row_ops_gen =
  QCheck2.Gen.(list (pair (int_bound (row_width - 1)) (int_bound 1000)))

let prop_row_matches_hashtbl ops =
  let pool = Amcast.Slab.Row.pool ~width:row_width ~default:(-1) in
  let row = Amcast.Slab.Row.acquire pool in
  let model = Hashtbl.create 16 in
  List.iter
    (fun (i, v) ->
      Amcast.Slab.Row.set row i v;
      Hashtbl.replace model i v;
      if Amcast.Slab.Row.count row <> Hashtbl.length model then
        QCheck2.Test.fail_reportf "count %d <> model %d"
          (Amcast.Slab.Row.count row) (Hashtbl.length model);
      for j = 0 to row_width - 1 do
        let m = Hashtbl.find_opt model j in
        if Amcast.Slab.Row.mem row j <> (m <> None) then
          QCheck2.Test.fail_reportf "mem %d disagrees" j;
        if Amcast.Slab.Row.find row j <> m then
          QCheck2.Test.fail_reportf "find %d disagrees" j;
        if
          Amcast.Slab.Row.get row ~default:(-7) j
          <> Option.value ~default:(-7) m
        then QCheck2.Test.fail_reportf "get %d disagrees" j
      done)
    ops;
  Amcast.Slab.Row.release pool row;
  (* The pool hands the same row back; it must look freshly created. *)
  let row' = Amcast.Slab.Row.acquire pool in
  if Amcast.Slab.Row.count row' <> 0 then
    QCheck2.Test.fail_reportf "released row not cleared (count)";
  for j = 0 to row_width - 1 do
    if Amcast.Slab.Row.mem row' j then
      QCheck2.Test.fail_reportf "released row not cleared (slot %d)" j
  done;
  true

(* ------------------------------------------------------------------ *)
(* Consensus.Window vs an (int, int) Hashtbl model, under arbitrary
   non-negative keys — harsher than the protocols' monotone instance
   numbers, because far-apart keys force slot collisions and therefore
   ring growth. After every step the ascending [fold] must list exactly
   the model's bindings, sorted by key. *)

type wop = Wset of int * int | Wtake of int | Wdrop of int

let window_ops_gen =
  QCheck2.Gen.(
    list
      (oneof
         [
           map2 (fun k v -> Wset (k, v)) (int_bound 500) (int_bound 1000);
           map (fun k -> Wtake k) (int_bound 500);
           map (fun k -> Wdrop k) (int_bound 500);
         ]))

let prop_window_matches_hashtbl ops =
  let w = Consensus.Window.create () in
  let model = Hashtbl.create 16 in
  List.iter
    (fun op ->
      (match op with
      | Wset (k, v) ->
        Consensus.Window.set w k v;
        Hashtbl.replace model k v
      | Wtake k ->
        let got = Consensus.Window.take w k in
        let want = Hashtbl.find_opt model k in
        Hashtbl.remove model k;
        if got <> want then QCheck2.Test.fail_reportf "take %d disagrees" k
      | Wdrop k ->
        Consensus.Window.drop w k;
        Hashtbl.remove model k);
      if Consensus.Window.live w <> Hashtbl.length model then
        QCheck2.Test.fail_reportf "live %d <> model %d"
          (Consensus.Window.live w) (Hashtbl.length model);
      Hashtbl.iter
        (fun k v ->
          if Consensus.Window.find w k <> Some v then
            QCheck2.Test.fail_reportf "find %d disagrees" k)
        model;
      let folded =
        Consensus.Window.fold (fun k v acc -> (k, v) :: acc) w [] |> List.rev
      in
      let sorted =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      if folded <> sorted then
        QCheck2.Test.fail_reportf "fold order disagrees with the sorted model")
    ops;
  true

(* ------------------------------------------------------------------ *)
(* Rng.substream: a pure function of (seed, i); distinct indices give
   distinct streams and repeated derivation replays the same stream. *)

let test_substream () =
  let a = Des.Rng.substream 123 5 and b = Des.Rng.substream 123 5 in
  for _ = 1 to 10 do
    Alcotest.(check int64) "replayed stream" (Des.Rng.int64 a)
      (Des.Rng.int64 b)
  done;
  let x = Des.Rng.int64 (Des.Rng.substream 123 0)
  and y = Des.Rng.int64 (Des.Rng.substream 123 1) in
  Alcotest.(check bool) "distinct indices diverge" true (x <> y);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.substream: index must be >= 0") (fun () ->
      ignore (Des.Rng.substream 1 (-1)))

(* ------------------------------------------------------------------ *)
(* Sharded campaigns: the summary must carry, failure for failure, the
   outcomes of running each scenario of [Campaign.scenarios] in order, at
   every domain count, including domain counts that do not divide the run
   count. *)

let test_sharded_identity () =
  let seed = 11 and runs = 9 in
  let outcomes =
    List.map
      (Harness.Campaign.run_one (module Amcast.A1) ~expect_genuine:true)
      (Harness.Campaign.scenarios ~seed ~runs ())
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  List.iter
    (fun domains ->
      let sh =
        Harness.Campaign.run_sharded
          (module Amcast.A1)
          ~expect_genuine:true ~domains ~seed ~runs ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "sharded(%d) = sequential" domains)
        true
        (sh.runs = runs
        && sh.failures
           = List.filter
               (fun (o : Harness.Campaign.outcome) -> o.violations <> [])
               outcomes
        && sh.delivered_total
           = sum (fun (o : Harness.Campaign.outcome) -> o.delivered)
        && sh.total_steps = sum (fun (o : Harness.Campaign.outcome) -> o.steps)))
    [ 1; 2; 3; 4 ]

let test_sharded_scenarios_agree () =
  (* The sharded driver derives scenario [i] in-worker; it must be the
     same scenario the central list contains. *)
  let ss = Harness.Campaign.scenarios ~seed:5 ~runs:20 () in
  List.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "scenario_at %d" i)
        true
        (Harness.Campaign.scenario_at ~seed:5 i = s))
    ss

(* ------------------------------------------------------------------ *)
(* Ring livelock regression. A Final that overtakes a member's own
   Decide used to leave the finalized message at the head of the
   propose queue forever: while delivery was blocked behind a slower
   unfinalized message, every consensus instance re-proposed the
   finalized head without stamping anything — millions of instances for
   a ten-message run. The queue filter now skips entries with a final
   stamp; this scenario livelocked (45k+ instances on 10 messages)
   before the fix and drains in well under 500k steps after it. *)

let test_ring_livelock_regression () =
  let module R = Harness.Runner.Make (Amcast.Ring) in
  let seed = 606523686 in
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let rng = Des.Rng.create (seed + 1) in
  let workload =
    Harness.Workload.generate ~rng ~topology:topo ~n:10
      ~dest:(Harness.Workload.Random_groups 3)
      ~arrival:(`Poisson (Des.Sim_time.of_ms 25))
      ()
  in
  let dep = R.deploy ~seed ~latency:Latency.wan_default ~faults:[] topo in
  ignore (R.schedule dep workload);
  match R.run_deployment ~max_steps:500_000 dep with
  | exception Failure _ ->
    Alcotest.fail "ring livelocked: max_steps exhausted"
  | r ->
    Alcotest.(check bool) "drained" true r.Harness.Run_result.drained;
    Util.check_no_violations "ring regression scenario"
      (Harness.Checker.check_all ~expect_genuine:true ~check_quiescence:true
         r)

(* ------------------------------------------------------------------ *)
(* Allocation regression: A1 steady state on a multi-group topology
   must stay within flat per-delivery budgets. The minor-words budget
   is not zero — every delivery still pays for consensus instances and
   messages, R-MCast bookkeeping, the proposal fan-outs' destination
   lists and harness bookkeeping — but proposal receipts, decision
   fan-outs and in-flight messages allocate nothing per copy, and this
   locks that in. This run measures ~214 minor words/delivery (~423 when
   every redundant (TS, m) receipt allocated a closure and an option
   and re-ran the s1 check, and sends allocated an envelope, a slab
   record and a destination list); the budget of 320 is ~1.5x, so that
   regression fails it. The promoted-words budget bounds the state
   retained per delivery (instance records, rmcast entries, pending
   entries): this run measures ~41.5, and the budget of 62 is ~1.5x. *)

module A1_runner = Harness.Runner.Make (Amcast.A1)

(* A seeded A1 deployment under the throughput config, its casts
   scheduled, ready to run. *)
let a1_deployment ~groups ~per_group ~n =
  let topo = Topology.symmetric ~groups ~per_group in
  let rng = Des.Rng.create 43 in
  let workload =
    Harness.Workload.generate ~rng ~topology:topo ~n
      ~dest:(Harness.Workload.Random_groups 3)
      ~arrival:(`Poisson (Des.Sim_time.of_ms 5))
      ()
  in
  let dep =
    A1_runner.deploy ~seed:43 ~latency:Latency.wan_default ~record_trace:false
      ~config:Amcast.Protocol.Config.throughput topo
  in
  ignore (A1_runner.schedule dep workload);
  dep

let test_a1_allocation_budget () =
  let dep = a1_deployment ~groups:10 ~per_group:3 ~n:2_000 in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let r = A1_runner.run_deployment dep in
  let g1 = Gc.quick_stat () in
  Alcotest.(check bool) "drained" true r.Harness.Run_result.drained;
  let deliveries = List.length r.Harness.Run_result.deliveries in
  Alcotest.(check bool) "delivered something" true (deliveries > 0);
  let per_delivery =
    (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int deliveries
  in
  if per_delivery > 320.0 then
    Alcotest.failf
      "a1 steady state allocates %.0f minor words/delivery (budget 320)"
      per_delivery;
  let promoted_per_delivery =
    (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. float_of_int deliveries
  in
  if promoted_per_delivery > 62.0 then
    Alcotest.failf
      "a1 steady state promotes %.1f words/delivery (budget 62)"
      promoted_per_delivery

(* The safety checks run after every simulated run, so their allocation
   is part of a run's cost. On the slot index they walk int arrays: this
   20x5, 1000-cast run measures ~3.9 minor words per delivery for
   [check_all] (index included), where per-pid position tables, per-pid
   projection lists and a per-id table of delivery lists measured ~75.
   The budget of 8 is ~2x. *)
let test_checker_allocation_budget () =
  let r =
    A1_runner.run_deployment (a1_deployment ~groups:20 ~per_group:5 ~n:1_000)
  in
  let deliveries = List.length r.Harness.Run_result.deliveries in
  Alcotest.(check bool) "delivered something" true (deliveries > 0);
  let w0 = Gc.minor_words () in
  let violations = Harness.Checker.check_all ~check_quiescence:true r in
  let per_delivery = (Gc.minor_words () -. w0) /. float_of_int deliveries in
  Util.check_no_violations "checker budget run" violations;
  if per_delivery > 8.0 then
    Alcotest.failf
      "check_all allocates %.1f minor words/delivery (budget 8)" per_delivery

let suites =
  [
    ( "scale-slab",
      [
        Util.qcheck_case ~count:200
          ~name:"Row matches Hashtbl under random schedules" row_ops_gen
          prop_row_matches_hashtbl;
        Util.qcheck_case ~count:200
          ~name:"Window matches Hashtbl under random schedules"
          window_ops_gen prop_window_matches_hashtbl;
      ] );
    ( "scale-substrate",
      [
        Alcotest.test_case "Rng.substream is pure and indexed" `Quick
          test_substream;
        Alcotest.test_case "sharded summaries = sequential at 1..4 domains"
          `Slow test_sharded_identity;
        Alcotest.test_case "in-worker scenario derivation agrees" `Quick
          test_sharded_scenarios_agree;
        Alcotest.test_case "ring: finalized-head livelock regression" `Slow
          test_ring_livelock_regression;
        Alcotest.test_case "a1: steady-state minor-words budget" `Slow
          test_a1_allocation_budget;
        Alcotest.test_case "checkers: minor-words budget" `Slow
          test_checker_allocation_budget;
      ] );
  ]
