(* The parallel execution layer: Harness.Pool semantics and the
   bit-identical-summary guarantee of Campaign.run_parallel. *)

let heavy i =
  (* A little CPU per item so chunks genuinely interleave across domains. *)
  let acc = ref i in
  for _ = 1 to 1_000 do
    acc := (!acc * 31) + 7
  done;
  (i, !acc)

let test_pool_matches_sequential_map () =
  let items = Array.init 37 (fun i -> i) in
  let expected = Array.map heavy items in
  List.iter
    (fun domains ->
      Alcotest.(check (array (pair int int)))
        (Fmt.str "domains=%d" domains)
        expected
        (Harness.Pool.map ~domains heavy items))
    [ 1; 2; 4; 7 ]

let test_pool_default_domains () =
  let items = Array.init 5 (fun i -> i) in
  Alcotest.(check (array (pair int int)))
    "default domain count" (Array.map heavy items)
    (Harness.Pool.map heavy items)

let test_pool_edge_sizes () =
  Alcotest.(check (array int)) "empty" [||]
    (Harness.Pool.map ~domains:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "more domains than items" [| 10; 20 |]
    (Harness.Pool.map ~domains:16 (fun x -> x * 10) [| 1; 2 |])

let test_pool_invalid_domains () =
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Pool.map: domains must be >= 1") (fun () ->
      ignore (Harness.Pool.map ~domains:0 Fun.id [| 1 |]))

let test_pool_propagates_exception () =
  Alcotest.check_raises "worker failure reaches the caller"
    (Failure "boom") (fun () ->
      ignore
        (Harness.Pool.map ~domains:3
           (fun i -> if i = 11 then failwith "boom" else i)
           (Array.init 20 Fun.id)))

let test_parallel_outcomes_in_scenario_order () =
  let ss =
    Harness.Campaign.scenarios ~with_crashes:false ~seed:5 ~runs:8 ()
  in
  let outcomes =
    Harness.Campaign.run_scenarios_parallel
      (module Amcast.Skeen : Amcast.Protocol.S)
      ~domains:4 ss
  in
  Alcotest.(check (list int))
    "outcome i belongs to scenario i"
    (List.map (fun (s : Harness.Campaign.scenario) -> s.seed) ss)
    (List.map
       (fun (o : Harness.Campaign.outcome) -> o.scenario.seed)
       outcomes)

(* The tentpole guarantee: for identical seeds, the parallel campaign's
   summary — violations, delivered counts, per-scenario outcomes, event
   counts — is structurally identical to the sequential one's, for any
   domain count. *)
let determinism name (e : Amcast.Catalogue.entry) =
  Alcotest.test_case name `Slow (fun () ->
      let broadcast_only = e.broadcast_only
      and with_crashes = e.crash_tolerant in
      let seq =
        Harness.Campaign.run e.proto ~broadcast_only ~with_crashes ~seed:42
          ~runs:10 ()
      in
      List.iter
        (fun domains ->
          let par =
            Harness.Campaign.run_parallel e.proto ~broadcast_only ~with_crashes
              ~domains ~seed:42 ~runs:10 ()
          in
          Alcotest.(check bool)
            (Fmt.str "summary identical at %d domains" domains)
            true (par = seq))
        [ 1; 4 ];
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
