(* The parallel execution layer: Harness.Pool.tabulate semantics and the
   bit-identical-summary guarantee of Campaign.run_sharded — one domain
   against several. *)

let heavy i =
  (* A little CPU per item so chunks genuinely interleave across domains. *)
  let acc = ref i in
  for _ = 1 to 1_000 do
    acc := (!acc * 31) + 7
  done;
  (i, !acc)

let test_pool_matches_sequential_map () =
  let expected = Array.init 37 heavy in
  List.iter
    (fun domains ->
      Alcotest.(check (array (pair int int)))
        (Fmt.str "domains=%d" domains)
        expected
        (Harness.Pool.tabulate ~domains 37 heavy))
    [ 1; 2; 4; 7 ]

let test_pool_default_domains () =
  Alcotest.(check (array (pair int int)))
    "default domain count" (Array.init 5 heavy)
    (Harness.Pool.tabulate 5 heavy)

let test_pool_edge_sizes () =
  Alcotest.(check (array int)) "empty" [||]
    (Harness.Pool.tabulate ~domains:4 0 Fun.id);
  Alcotest.(check (array int)) "more domains than items" [| 10; 20 |]
    (Harness.Pool.tabulate ~domains:16 2 (fun i -> (i + 1) * 10))

let test_pool_invalid_domains () =
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Pool.tabulate: domains must be >= 1") (fun () ->
      ignore (Harness.Pool.tabulate ~domains:0 1 Fun.id))

let test_pool_propagates_exception () =
  Alcotest.check_raises "worker failure reaches the caller"
    (Failure "boom") (fun () ->
      ignore
        (Harness.Pool.tabulate ~domains:3 20 (fun i ->
             if i = 11 then failwith "boom" else i)))

(* The summary keeps outcomes in scenario order: a genuineness campaign of
   the non-genuine via-broadcast flags some runs, and its failures must be
   those scenarios, in the order [scenarios] lists them, at one domain and
   at four. *)
let test_parallel_outcomes_in_scenario_order () =
  let seeds =
    Harness.Campaign.scenarios ~with_crashes:false ~seed:3 ~runs:20 ()
    |> List.map (fun (s : Harness.Campaign.scenario) -> s.seed)
  in
  let failed domains =
    (Harness.Campaign.run_sharded
       (module Amcast.Via_broadcast : Amcast.Protocol.S)
       ~expect_genuine:true ~with_crashes:false ~domains ~seed:3 ~runs:20 ())
      .failures
    |> List.map (fun (o : Harness.Campaign.outcome) -> o.scenario.seed)
  in
  let seq = failed 1 in
  Alcotest.(check bool) "some runs flagged" true (seq <> []);
  Alcotest.(check (list int))
    "failures in scenario order" (List.filter (fun s -> List.mem s seq) seeds)
    seq;
  Alcotest.(check (list int)) "same failures at 4 domains" seq (failed 4)

(* The tentpole guarantee: for identical seeds, the campaign's summary —
   violations, delivered counts, per-scenario outcomes, event counts — is
   structurally identical on one domain and on several. *)
let determinism name (e : Amcast.Catalogue.entry) =
  Alcotest.test_case name `Slow (fun () ->
      let broadcast_only = e.broadcast_only
      and with_crashes = e.crash_tolerant in
      let sharded domains =
        Harness.Campaign.run_sharded e.proto ~broadcast_only ~with_crashes
          ~domains ~seed:42 ~runs:10 ()
      in
      let seq = sharded 1 in
      List.iter
        (fun domains ->
          Alcotest.(check bool)
            (Fmt.str "summary identical at %d domains" domains)
            true (sharded domains = seq))
        [ 2; 4 ];
      Alcotest.(check bool) "non-trivial campaign" true (seq.total_steps > 0))

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "pool matches sequential map" `Quick
          test_pool_matches_sequential_map;
        Alcotest.test_case "pool default domain count" `Quick
          test_pool_default_domains;
        Alcotest.test_case "pool edge sizes" `Quick test_pool_edge_sizes;
        Alcotest.test_case "pool rejects bad domain count" `Quick
          test_pool_invalid_domains;
        Alcotest.test_case "pool propagates exceptions" `Quick
          test_pool_propagates_exception;
        Alcotest.test_case "parallel outcomes keep scenario order" `Quick
          test_parallel_outcomes_in_scenario_order;
        determinism "campaign determinism: a1 (crashes)" (Util.entry "a1");
        determinism "campaign determinism: a2 (broadcast, crashes)"
          (Util.entry "a2");
        determinism "campaign determinism: ring (failure-free)"
          (Util.entry "ring");
      ] );
  ]
