(* Randomised soak campaigns over bin/amcast_soak's targets (the
   quiescent, uniform catalogue entries) — the same engine, kept small
   enough for the test suite. *)

let campaign ?config ?conflict ?name (e : Amcast.Catalogue.entry) =
  Alcotest.test_case (Option.value name ~default:e.name) `Slow (fun () ->
      let summary =
        Harness.Campaign.run_sharded e.proto ?config ?conflict
          ~expect_genuine:e.genuine ~check_quiescence:true
          ~broadcast_only:e.broadcast_only ~with_crashes:e.crash_tolerant
          ~domains:1 ~seed:99 ~runs:12 ()
      in
      (match summary.failures with
      | [] -> ()
      | o :: _ ->
        Alcotest.failf "campaign violation: %s"
          (String.concat "; " o.violations));
      Alcotest.(check int) "all clean" summary.runs summary.clean)

(* PR 6 observed the ring target exhausting the runner's [max_steps]
   runaway guard on amcast_soak's seed-0 scenario set; the root cause
   (stale entries pinning the token queue's filter) was fixed in the
   ring rework, with the minimized repro pinned by
   [test_scale.test_ring_livelock_regression]. This re-runs the original
   soak-level repro — the exact seed-0 campaign scenarios — and asserts
   every run drains (quiescence would flag a run saved only by the step
   guard). *)
let ring_seed0_regression =
  Alcotest.test_case "ring: seed-0 soak scenarios drain (PR 6 regression)"
    `Slow (fun () ->
      let scenarios = Harness.Campaign.scenarios ~seed:0 ~runs:12 () in
      let outcomes =
        List.map
          (Harness.Campaign.run_one
             (module Amcast.Ring : Amcast.Protocol.S)
             ~expect_genuine:true ~check_quiescence:true)
          scenarios
      in
      List.iter
        (fun (o : Harness.Campaign.outcome) ->
          if not o.drained then
            Alcotest.failf "seed %d did not drain (%d steps)"
              o.scenario.Harness.Campaign.seed o.steps;
          match o.violations with
          | [] -> ()
          | v -> Alcotest.failf "seed %d: %s" o.scenario.seed
                   (String.concat "; " v))
        outcomes)

(* The trace-reading check must still see a trace on the campaign path.
   Via-broadcast is not genuine, so a crash-free genuineness campaign
   flags runs; a campaign that stopped recording would flag none. *)
let trace_checks_fed =
  let flagged ~prefix (s : Harness.Campaign.summary) =
    List.filter
      (fun (o : Harness.Campaign.outcome) ->
        List.exists (String.starts_with ~prefix) o.violations)
      s.failures
    |> List.length
  in
  Alcotest.test_case "campaigns feed the trace-reading checks" `Slow
    (fun () ->
      let genuine =
        Harness.Campaign.run_sharded
          (module Amcast.Via_broadcast : Amcast.Protocol.S)
          ~expect_genuine:true ~with_crashes:false ~domains:1 ~seed:3
          ~runs:20 ()
      in
      Alcotest.(check int)
        "via-broadcast runs flagged by genuineness" 2
        (flagged ~prefix:"genuineness:" genuine))

(* A run that never drains is a reported violation of its scenario, not
   an exception that aborts the campaign: a protocol whose every process
   re-arms a timer forever runs into the campaign's step budget. *)
module Spinner : Amcast.Protocol.S = struct
  type t = unit
  type wire = unit

  let name = "spinner"
  let tag () = "spin"

  let create ~services ~config:_ ~deliver:_ =
    let rec spin () =
      ignore
        (services.Runtime.Services.set_timer ~after:(Des.Sim_time.of_ms 1)
           spin)
    in
    spin ()

  let cast () _ = ()
  let on_receive () ~src:_ () = ()
  let stats () = []
end

let runaway_reported =
  Alcotest.test_case "a run that never drains is a reported violation"
    `Slow (fun () ->
      let summary =
        Harness.Campaign.run_sharded
          (module Spinner : Amcast.Protocol.S)
          ~with_crashes:false ~domains:1 ~seed:5 ~runs:1 ()
      in
      let report = Fmt.str "%a" Harness.Campaign.pp_summary summary in
      let has = Util.contains report in
      Alcotest.(check int) "one failed run" 1 (List.length summary.failures);
      Alcotest.(check bool) "names the scenario" true (has "[seed=");
      Alcotest.(check bool) "says it did not drain" true
        (has (Fmt.str "not drained in %d events" Harness.Campaign.max_steps)))

let generic_key_config =
  {
    Amcast.Protocol.Config.default with
    conflict = Amcast.Conflict.payload_key;
  }

let suites =
  let generic = Option.get (Amcast.Catalogue.find "generic") in
  [
    ( "soak",
      List.map
        (fun (e : Amcast.Catalogue.entry) ->
          if e == generic then campaign ~name:"generic (total conflict)" e
          else campaign e)
        Amcast.Catalogue.soak_targets
      @ [
          campaign ~config:generic_key_config
            ~conflict:(Harness.Workload.conflict_spec 0.5)
            ~name:"generic (keyed conflicts)" generic;
          ring_seed0_regression;
          trace_checks_fed;
          runaway_reported;
        ] );
  ]
