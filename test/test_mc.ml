(* Model-checker tests: exhaustive exploration with POR, replay
   determinism, seeded mutations caught with replayable traces, and the
   checked-in counterexample corpus. *)

open Mc

let cast at origin dest payload =
  { Harness.Workload.at = Util.us at; origin; dest; payload }

let topo sizes = Net.Topology.make ~sizes

module EA1 = Explorer.Make (Amcast.A1)
module EA2 = Explorer.Make (Amcast.A2)
module EFz = Explorer.Make (Amcast.Fritzke)
module EVb = Explorer.Make (Amcast.Via_broadcast)
module EOpt = Explorer.Make (Amcast.Optimistic)
module EWb = Explorer.Make (Amcast.Whitebox)
module EFx = Explorer.Make (Amcast.Flexcast)

(* ---------- exhaustive exploration ---------- *)

(* One global cast, one process per group: small enough that the naive
   (unreduced) enumeration also terminates, so the two can be compared. *)
let a1_1x1 () = EA1.make_setup ~topology:(topo [ 1; 1 ]) [ cast 1_000 0 [ 0; 1 ] "m0" ]

let test_a1_por_vs_naive () =
  let s = a1_1x1 () in
  let p = EA1.explore s in
  let n = EA1.explore ~opts:{ Explorer.default_opts with Explorer.por = false } s in
  Alcotest.(check bool) "por exhaustive" true p.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check bool) "naive exhaustive" true n.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check int) "por interleavings" 20 p.Explorer.stats.Explorer.interleavings;
  Alcotest.(check int) "naive interleavings" 560 n.Explorer.stats.Explorer.interleavings;
  Alcotest.(check bool) "por reduction at least 5x" true
    (n.Explorer.stats.Explorer.interleavings >= 5 * p.Explorer.stats.Explorer.interleavings);
  (* Sleep sets only skip schedules equivalent to an explored one: the
     reduced search must still see every distinct terminal outcome. *)
  Alcotest.(check (list int)) "same outcomes" n.Explorer.outcome_digests p.Explorer.outcome_digests;
  Alcotest.(check bool) "clean" true (p.Explorer.violation = None)

(* The acceptance configuration: 2 groups x 2 processes, 2 global casts,
   exhaustively enumerated under a delay bound of 1. *)
let test_a1_2x2_exhaustive () =
  let s =
    EA1.make_setup ~reorder_bound:1 ~topology:(topo [ 2; 2 ])
      [ cast 1_000 0 [ 0; 1 ] "m0"; cast 2_000 2 [ 0; 1 ] "m1" ]
  in
  let o = EA1.explore s in
  Alcotest.(check bool) "exhaustive" true o.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check int) "interleavings" 12 o.Explorer.stats.Explorer.interleavings;
  Alcotest.(check bool) "clean" true (o.Explorer.violation = None)

let test_a2_1x1 () =
  let s = EA2.make_setup ~topology:(topo [ 1; 1 ]) [ cast 1_000 0 [ 0; 1 ] "m0" ] in
  let o = EA2.explore s in
  Alcotest.(check bool) "exhaustive" true o.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check bool) "clean" true (o.Explorer.violation = None);
  Alcotest.(check int) "uniform outcome" 1 (List.length o.Explorer.outcome_digests)

let test_fritzke_1x1 () =
  let s = EFz.make_setup ~topology:(topo [ 1; 1 ]) [ cast 1_000 0 [ 0; 1 ] "m0" ] in
  let o = EFz.explore s in
  Alcotest.(check bool) "exhaustive" true o.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check bool) "clean" true (o.Explorer.violation = None);
  Alcotest.(check int) "uniform outcome" 1 (List.length o.Explorer.outcome_digests)

let test_via_broadcast_1x1 () =
  let s = EVb.make_setup ~topology:(topo [ 1; 1 ]) [ cast 1_000 0 [ 0; 1 ] "m0" ] in
  let o = EVb.explore s in
  Alcotest.(check bool) "exhaustive" true o.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check bool) "clean" true (o.Explorer.violation = None);
  Alcotest.(check int) "uniform outcome" 1 (List.length o.Explorer.outcome_digests)

let test_optimistic_1x2 () =
  let s =
    EOpt.make_setup ~topology:(topo [ 1; 2 ])
      [ cast 1_000 0 [ 0; 1 ] "m0"; cast 2_000 1 [ 0; 1 ] "m1" ]
  in
  let o = EOpt.explore s in
  Alcotest.(check bool) "exhaustive" true o.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check bool) "clean" true (o.Explorer.violation = None);
  Alcotest.(check int) "uniform outcome" 1 (List.length o.Explorer.outcome_digests)

(* ---------- the modern baselines: whitebox and flexcast ---------- *)

(* Whitebox runs the full consensus machinery per group, so the naive
   search needs a delay bound to stay small; the POR search must still
   cover every terminal outcome the naive one reaches. *)
let test_whitebox_por_vs_naive () =
  let s =
    EWb.make_setup ~reorder_bound:2 ~topology:(topo [ 1; 1 ])
      [ cast 1_000 0 [ 0; 1 ] "m0" ]
  in
  let p = EWb.explore s in
  let n = EWb.explore ~opts:{ Explorer.default_opts with Explorer.por = false } s in
  Alcotest.(check bool) "por exhaustive" true p.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check bool) "naive exhaustive" true n.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check int) "por interleavings" 11 p.Explorer.stats.Explorer.interleavings;
  Alcotest.(check int) "naive interleavings" 99 n.Explorer.stats.Explorer.interleavings;
  Alcotest.(check bool) "por reduction at least 5x" true
    (n.Explorer.stats.Explorer.interleavings >= 5 * p.Explorer.stats.Explorer.interleavings);
  Alcotest.(check (list int)) "same outcomes" n.Explorer.outcome_digests p.Explorer.outcome_digests;
  Alcotest.(check int) "uniform outcome" 1 (List.length p.Explorer.outcome_digests);
  Alcotest.(check bool) "clean" true (p.Explorer.violation = None)

(* The acceptance configuration: 2 groups x 2 processes, 2 global casts,
   exhaustively enumerated under a delay bound of 1. Every schedule ends
   in the same per-process delivery sequences: the convoy timestamps make
   the global order schedule-independent here. *)
let test_whitebox_2x2_exhaustive () =
  let s =
    EWb.make_setup ~reorder_bound:1 ~topology:(topo [ 2; 2 ])
      [ cast 1_000 0 [ 0; 1 ] "m0"; cast 2_000 2 [ 0; 1 ] "m1" ]
  in
  let o = EWb.explore s in
  Alcotest.(check bool) "exhaustive" true o.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check int) "interleavings" 16 o.Explorer.stats.Explorer.interleavings;
  Alcotest.(check int) "uniform outcome" 1 (List.length o.Explorer.outcome_digests);
  Alcotest.(check bool) "clean" true (o.Explorer.violation = None)

let test_flexcast_por_vs_naive () =
  let s = EFx.make_setup ~topology:(topo [ 1; 1 ]) [ cast 1_000 0 [ 0; 1 ] "m0" ] in
  let p = EFx.explore s in
  let n = EFx.explore ~opts:{ Explorer.default_opts with Explorer.por = false } s in
  Alcotest.(check bool) "por exhaustive" true p.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check bool) "naive exhaustive" true n.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check (list int)) "same outcomes" n.Explorer.outcome_digests p.Explorer.outcome_digests;
  Alcotest.(check int) "uniform outcome" 1 (List.length p.Explorer.outcome_digests);
  Alcotest.(check bool) "clean" true (p.Explorer.violation = None)

(* On a clique with concurrent casts the Skeen-style timestamps are
   arrival-order dependent, so different schedules legitimately settle on
   different (internally consistent) global orders: two distinct terminal
   outcomes, every one of them checker-clean. *)
let test_flexcast_2x2_exhaustive () =
  let s =
    EFx.make_setup ~reorder_bound:1 ~topology:(topo [ 2; 2 ])
      [ cast 1_000 0 [ 0; 1 ] "m0"; cast 2_000 2 [ 0; 1 ] "m1" ]
  in
  let o = EFx.explore s in
  Alcotest.(check bool) "exhaustive" true o.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check int) "interleavings" 7 o.Explorer.stats.Explorer.interleavings;
  Alcotest.(check int) "two consistent orders" 2 (List.length o.Explorer.outcome_digests);
  Alcotest.(check bool) "clean" true (o.Explorer.violation = None)

(* Flexcast over a hub overlay, model-checked with the overlay-aware
   genuineness oracle at every terminal state: a spoke-to-spoke cast may
   involve the hub (it relays), but nothing else. The explorer's default
   check is what the catalogue entry owes under the config, and for
   flexcast with an overlay that includes this oracle. *)
let test_flexcast_hub_exhaustive () =
  let ov = Net.Overlay.hub ~groups:3 in
  let config =
    { Amcast.Protocol.Config.default with Amcast.Protocol.Config.overlay = Some ov }
  in
  let s =
    EFx.make_setup ~reorder_bound:1 ~config
      ~latency:(Net.Overlay.to_latency ov)
      ~topology:(topo [ 1; 1; 1 ])
      [ cast 1_000 2 [ 1; 2 ] "m0" ]
  in
  let o = EFx.explore s in
  Alcotest.(check bool) "exhaustive" true o.Explorer.stats.Explorer.exhaustive;
  Alcotest.(check int) "uniform outcome" 1 (List.length o.Explorer.outcome_digests);
  Alcotest.(check bool) "genuine on every schedule" true (o.Explorer.violation = None)

(* ---------- replay determinism ---------- *)

let a1_2x2 () =
  EA1.make_setup ~topology:(topo [ 2; 2 ])
    [ cast 1_000 0 [ 0; 1 ] "m0"; cast 2_000 2 [ 0; 1 ] "m1" ]

(* Any int list is a runnable schedule (Drive clamps out-of-range
   indices); replaying it twice must give bit-identical runs. *)
let replay_deterministic =
  Util.qcheck_case ~count:60 ~name:"random schedules replay bit-identically"
    QCheck2.Gen.(list_size (int_bound 25) (int_bound 5))
    (fun cs ->
      let s = a1_2x2 () in
      let r1 = EA1.replay s cs in
      let r2 = EA1.replay s cs in
      Explorer.digest r1 = Explorer.digest r2
      && r1.Harness.Run_result.events_executed
         = r2.Harness.Run_result.events_executed
      && r1.Harness.Run_result.end_time = r2.Harness.Run_result.end_time
      || QCheck2.Test.fail_reportf "replay diverged on schedule [%s]"
           (String.concat "," (List.map string_of_int cs)))

let test_natural_schedule_is_all_zeros () =
  (* Choice 0 is exactly the event the normal scheduler would pop, so the
     empty (zero-padded) schedule reproduces the natural run. *)
  let s = a1_2x2 () in
  let natural = EA1.replay s [] in
  let zeros = EA1.replay s [ 0; 0; 0; 0; 0; 0; 0; 0 ] in
  Alcotest.(check int) "same digest" (Explorer.digest natural)
    (Explorer.digest zeros);
  Util.check_no_violations "natural run clean" (Harness.Checker.check_all natural)

(* ---------- seeded mutations ---------- *)

(* Dropping p1's second A-Deliver in the A2 restart scenario: the
   explorer must catch it and the minimized schedule must replay to the
   same verdict. *)
let test_mutation_a2_drop_deliver () =
  let module M =
    Mutant.Make
      (Amcast.A2)
      (struct
        let spec = Mutant.Drop_deliver { pid = 1; nth = 1 }
      end)
  in
  let module E = Explorer.Make (M) in
  let s =
    E.make_setup ~reorder_bound:1 ~topology:(topo [ 1; 1 ])
      [ cast 1_000 0 [ 0; 1 ] "m0"; cast 400_000 0 [ 0; 1 ] "m1" ]
  in
  let o = E.explore s in
  let v =
    match o.Explorer.violation with
    | Some v -> v
    | None -> Alcotest.fail "mutation not caught"
  in
  let choices, msgs = E.minimize s v.Explorer.choices in
  Alcotest.(check bool) "still violating" true (msgs <> []);
  Alcotest.(check bool) "names m0.1" true
    (List.exists (fun m -> Util.contains m "m0.1") msgs);
  (* The minimized schedule replays to the identical verdict. *)
  let r = E.replay s choices in
  Alcotest.(check (list string)) "replay verdict" msgs (Harness.Checker.check_all r)

(* Skeen has no fault tolerance: dropping p1's first stamp message stalls
   every message whose final timestamp needs it. The counterexample
   round-trips through the trace-file format. *)
let test_mutation_skeen_trace_roundtrip () =
  let spec = Mutant.Drop_receive { pid = 1; nth = 0; tag_prefix = "skeen.stamp" } in
  let module M =
    Mutant.Make
      (Amcast.Skeen)
      (struct
        let spec = spec
      end)
  in
  let module E = Explorer.Make (M) in
  let casts = [ (1_000, 0, [ 0; 1 ], "m0"); (2_000, 2, [ 0; 1 ], "m1") ] in
  let workload = List.map (fun (at, o, d, p) -> cast at o d p) casts in
  let s = E.make_setup ~reorder_bound:1 ~topology:(topo [ 2; 2 ]) workload in
  let o = E.explore s in
  let v =
    match o.Explorer.violation with
    | Some v -> v
    | None -> Alcotest.fail "mutation not caught"
  in
  let choices, msgs = E.minimize s v.Explorer.choices in
  Alcotest.(check bool) "still violating" true (msgs <> []);
  let tf =
    Trace_file.make ~protocol:"skeen" ~sizes:[ 2; 2 ] ~casts ~mutation:spec
      ~choices ~note:"seeded skeen stamp drop" ()
  in
  (match Trace_file.of_string (Trace_file.to_string tf) with
  | Ok tf' -> Alcotest.(check bool) "roundtrip" true (tf = tf')
  | Error e -> Alcotest.failf "roundtrip: %s" e);
  match Trace_file.replay tf with
  | Ok (_, violations) ->
    Alcotest.(check (list string)) "trace replays to same verdict" msgs violations
  | Error e -> Alcotest.failf "replay: %s" e

(* A mutant renames its protocol out of the catalogue, yet explore must
   check what the base entry owes under the config, as replay does.
   Generic under per-key conflicts owes no prefix order between the two
   commuting casts, and p0 never reaches a tenth delivery, so the mutant
   cell is clean. *)
let test_mutation_generic_key_owed () =
  let tf =
    Trace_file.make ~config:"generic-key" ~reorder_bound:1
      ~casts:[ (1_000, 0, [ 0; 1 ], "m0"); (2_000, 2, [ 0; 1 ], "m1") ]
      ~mutation:(Mutant.Drop_deliver { pid = 0; nth = 9 })
      ~protocol:"generic" ~sizes:[ 2; 2 ] ()
  in
  let cell =
    match Trace_file.cell tf with Ok c -> c | Error e -> Alcotest.fail e
  in
  let o = cell.explore Explorer.default_opts in
  (match o.Explorer.violation with
  | None -> ()
  | Some v ->
    Alcotest.failf "explore reports: %s" (String.concat "; " v.Explorer.messages));
  Alcotest.(check bool) "exhaustive" true o.Explorer.stats.Explorer.exhaustive;
  match Trace_file.replay tf with
  | Ok (_, violations) ->
    Alcotest.(check (list string)) "replay agrees" [] violations
  | Error e -> Alcotest.failf "replay: %s" e

(* ---------- counterexample corpus ---------- *)

let load_corpus name =
  match Trace_file.load (Filename.concat "corpus" name) with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s: %s" name e

let replay_trace t =
  match Trace_file.replay t with
  | Ok (_, violations) -> violations
  | Error e -> Alcotest.failf "replay: %s" e

let check_names what needle violations =
  Alcotest.(check bool) what true
    (List.exists (fun m -> Util.contains m needle) violations)

let test_corpus_a1_stage_skip () =
  let v = replay_trace (load_corpus "a1_stage_skip.trace") in
  Alcotest.(check bool) "violates" true (v <> []);
  check_names "loses the multi-group cast" "m2.0" v

let test_corpus_a2_restart () =
  let v = replay_trace (load_corpus "a2_restart.trace") in
  Alcotest.(check bool) "violates" true (v <> []);
  check_names "loses the restart-round cast" "m0.1" v

let test_corpus_skeen_reorder () =
  let t = load_corpus "skeen_reorder.trace" in
  Alcotest.(check (list int)) "non-default schedule" [ 0; 1 ] t.Trace_file.choices;
  let reordered = replay_trace t in
  check_names "reordering also loses m0.0" "m0.0" reordered;
  (* The same scenario under the natural schedule loses only m0.1 — the
     verdict depends on the replayed choice sequence. *)
  let natural = replay_trace { t with Trace_file.choices = [] } in
  Alcotest.(check bool) "natural run still violates" true (natural <> []);
  Alcotest.(check bool) "but m0.0 survives naturally" false
    (List.exists (fun m -> Util.contains m "m0.0") natural)

(* The new-baseline corpus traces: seeded mutations against whitebox (a
   dropped leader-to-leader stamp) and flexcast over a hub overlay (the
   relay's forwarded data dropped). Both must replay to their recorded
   violations bit-identically — same verdict and same outcome digest on
   every replay. *)

let replay_run t =
  match Trace_file.replay t with
  | Ok (r, violations) -> (r, violations)
  | Error e -> Alcotest.failf "replay: %s" e

let test_corpus_whitebox_stamp_drop () =
  let t = load_corpus "whitebox_stamp_drop.trace" in
  Alcotest.(check bool) "clique-model trace carries no overlay" true
    (t.Trace_file.overlay = None);
  let r1, v1 = replay_run t in
  let r2, v2 = replay_run t in
  Alcotest.(check bool) "violates" true (v1 <> []);
  check_names "stalls the second cast" "m2.0" v1;
  Alcotest.(check (list string)) "verdict is stable" v1 v2;
  Alcotest.(check int) "bit-identical replay" (Explorer.digest r1)
    (Explorer.digest r2)

let test_corpus_flexcast_relay_drop () =
  let t = load_corpus "flexcast_relay_drop.trace" in
  Alcotest.(check bool) "records the hub overlay" true
    (t.Trace_file.overlay = Some Net.Overlay.Hub);
  let r1, v1 = replay_run t in
  let r2, v2 = replay_run t in
  Alcotest.(check bool) "violates" true (v1 <> []);
  (* One dropped relay forward loses both spoke-to-spoke casts: the data
     for the remote addressee only travels that route. *)
  check_names "loses the first cast" "m1.0" v1;
  check_names "loses the second cast" "m2.0" v1;
  Alcotest.(check (list string)) "verdict is stable" v1 v2;
  Alcotest.(check int) "bit-identical replay" (Explorer.digest r1)
    (Explorer.digest r2)

(* ---------- trace-file format ---------- *)

let test_trace_file_overlay_roundtrip () =
  let t =
    Trace_file.make ~protocol:"flexcast" ~sizes:[ 1; 1; 1 ]
      ~overlay:Net.Overlay.Ring
      ~casts:[ (1_000, 0, [ 0; 2 ], "m0") ]
      ()
  in
  Alcotest.(check bool) "overlay line emitted" true
    (Util.contains (Trace_file.to_string t) "overlay ring");
  (match Trace_file.of_string (Trace_file.to_string t) with
  | Ok t' -> Alcotest.(check bool) "roundtrip" true (t = t')
  | Error e -> Alcotest.failf "roundtrip: %s" e);
  (* No overlay = no overlay line: clique-model traces stay byte-identical
     to the pre-overlay format. *)
  let plain = Trace_file.make ~protocol:"a1" ~sizes:[ 2; 2 ] () in
  Alcotest.(check bool) "clique traces unchanged" false
    (Util.contains (Trace_file.to_string plain) "overlay");
  match Trace_file.of_string "amcast-mc-trace/v1\nprotocol flexcast\nsizes 1,1\noverlay moebius\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown overlay kind"

let test_trace_file_roundtrip () =
  let t =
    Trace_file.make ~seed:7 ~intra_us:2_000 ~inter_us:80_000 ~config:"fritzke"
      ~spurious_timers:1 ~reorder_bound:2
      ~casts:[ (1_000, 0, [ 0; 1 ], "hello world"); (2_000, 3, [ 1 ], "m1") ]
      ~faults:[ (0, 3) ]
      ~mutation:(Mutant.Drop_receive { pid = 2; nth = 4; tag_prefix = "cons.decide" })
      ~choices:[ 2; 0; 1 ] ~note:"format coverage" ~protocol:"a1" ~sizes:[ 2; 2 ]
      ()
  in
  match Trace_file.of_string (Trace_file.to_string t) with
  | Ok t' -> Alcotest.(check bool) "roundtrip" true (t = t')
  | Error e -> Alcotest.failf "roundtrip: %s" e

let test_trace_file_rejects_garbage () =
  (match Trace_file.of_string "not a trace\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad magic");
  match Trace_file.of_string "amcast-mc-trace/v1\nprotocol a1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trace without sizes"

let suites =
  [
    ( "mc.explorer",
      [
        Alcotest.test_case "a1 1x1: POR vs naive, same outcomes" `Quick
          test_a1_por_vs_naive;
        Alcotest.test_case "a1 2x2, 2 casts: exhaustive under delay bound" `Quick
          test_a1_2x2_exhaustive;
        Alcotest.test_case "a2 1x1: clean, uniform outcome" `Quick test_a2_1x1;
        Alcotest.test_case "fritzke 1x1: clean, uniform outcome" `Quick
          test_fritzke_1x1;
        Alcotest.test_case "via-broadcast 1x1: clean" `Quick
          test_via_broadcast_1x1;
        Alcotest.test_case "optimistic 1x2, 2 casts: clean, uniform outcome"
          `Quick test_optimistic_1x2;
        Alcotest.test_case "whitebox 1x1: POR vs naive, same outcomes" `Quick
          test_whitebox_por_vs_naive;
        Alcotest.test_case "whitebox 2x2, 2 casts: exhaustive, uniform" `Quick
          test_whitebox_2x2_exhaustive;
        Alcotest.test_case "flexcast 1x1: POR vs naive, same outcomes" `Quick
          test_flexcast_por_vs_naive;
        Alcotest.test_case "flexcast 2x2, 2 casts: exhaustive" `Quick
          test_flexcast_2x2_exhaustive;
        Alcotest.test_case "flexcast on a hub: genuine on every schedule"
          `Quick test_flexcast_hub_exhaustive;
      ] );
    ( "mc.replay",
      [
        replay_deterministic;
        Alcotest.test_case "empty schedule is the natural run" `Quick
          test_natural_schedule_is_all_zeros;
      ] );
    ( "mc.mutation",
      [
        Alcotest.test_case "a2 deliver drop caught and replayed" `Quick
          test_mutation_a2_drop_deliver;
        Alcotest.test_case "skeen stamp drop caught, trace round-trips" `Quick
          test_mutation_skeen_trace_roundtrip;
        Alcotest.test_case "generic-key mutant checks what generic owes"
          `Quick test_mutation_generic_key_owed;
      ] );
    ( "mc.corpus",
      [
        Alcotest.test_case "a1 stage-skip trace replays to violation" `Quick
          test_corpus_a1_stage_skip;
        Alcotest.test_case "a2 restart trace replays to violation" `Quick
          test_corpus_a2_restart;
        Alcotest.test_case "skeen reorder: verdict depends on schedule" `Quick
          test_corpus_skeen_reorder;
        Alcotest.test_case "whitebox stamp drop replays bit-identically"
          `Quick test_corpus_whitebox_stamp_drop;
        Alcotest.test_case "flexcast relay drop replays bit-identically"
          `Quick test_corpus_flexcast_relay_drop;
      ] );
    ( "mc.trace_file",
      [
        Alcotest.test_case "round-trip" `Quick test_trace_file_roundtrip;
        Alcotest.test_case "overlay line round-trip" `Quick
          test_trace_file_overlay_roundtrip;
        Alcotest.test_case "rejects malformed input" `Quick
          test_trace_file_rejects_garbage;
      ] );
  ]
