(* verify_bench — machine-readable verification-path baselines.

   Generates seeded runs at several message scales, times (a) the
   simulation itself (protocol-event throughput) and (b) the checker
   suite over the finished run, both through the indexed fast paths and
   through the naive oracles of the test-support library test/oracle/,
   and writes BENCH_verify.json so the verification-perf trajectory is
   tracked across PRs alongside BENCH_campaign.json.

   At every compared scale the two checker paths must report identical
   violation sets (the differential guarantee the unit suite asserts at
   small scale); any mismatch exits non-zero. The naive causal checker
   is O(casts^2 * trace), so the comparison matrix stops at --scales
   while the fast path continues alone through --fast-scales to show its
   wall time stays near-linear in deliveries.

   Usage: verify_bench [--seed S] [--scales N,N,..] [--fast-scales N,N,..]
                       [--repeats R] [--out PATH]
   Defaults: seed 7, scales 25,50,100,200, fast-scales 400,800,1600,3200,
   3 repeats, ./BENCH_verify.json. *)

open Net

let matrix =
  List.filter
    (fun (e : Amcast.Catalogue.entry) ->
      List.mem e.name [ "a1"; "a2"; "skeen" ])
    Amcast.Catalogue.all

type row = {
  protocol : string;
  n_msgs : int;
  deliveries : int;
  casts : int;
  trace_len : int;
  events : int;
  run_wall_s : float;
  fast_core_s : float;
      (* integrity + validity + agreement + prefix + genuineness: linear
         passes over the slot index and the trace *)
  fast_causal_s : float;
      (* one cast-clock pass over the trace + one delivery scan:
         O((trace + deliveries) * processes) *)
  fast_check_s : float;  (* core + causal *)
  naive_check_s : float option;  (* None beyond the comparison matrix *)
  violations_fast : int;
  differential_ok : bool option;
}

let generate_run (t : Amcast.Catalogue.entry) ~seed ~n =
  let module P = (val t.proto : Amcast.Protocol.S) in
  let module R = Harness.Runner.Make (P) in
  let topo = Topology.symmetric ~groups:3 ~per_group:3 in
  let rng = Des.Rng.create (seed + n) in
  let workload =
    Harness.Workload.generate ~rng ~topology:topo ~n
      ~dest:
        (if t.broadcast_only then Harness.Workload.To_all_groups
         else Harness.Workload.Random_groups 3)
      ~arrival:(`Poisson (Des.Sim_time.of_ms 10))
      ()
  in
  let t0 = Unix.gettimeofday () in
  let r = R.run ~seed ~latency:Latency.wan_default topo workload in
  (r, Unix.gettimeofday () -. t0)

let fast_core (r : Harness.Run_result.t) =
  (* Reset the memoised index so every repetition pays the full indexed
     cost, construction included. *)
  r.Harness.Run_result.index_memo <- None;
  Harness.Checker.uniform_integrity r
  @ Harness.Checker.validity r
  @ Harness.Checker.uniform_agreement r
  @ Harness.Checker.uniform_prefix_order r
  @ Harness.Checker.genuineness r

let fast_causal (r : Harness.Run_result.t) =
  Harness.Checker.causal_delivery_order r

let naive_suite (r : Harness.Run_result.t) =
  r.Harness.Run_result.index_memo <- None;
  Oracle.uniform_integrity r
  @ Oracle.validity r
  @ Oracle.uniform_agreement r
  @ Oracle.uniform_prefix_order r
  @ Oracle.genuineness r
  @ Oracle.causal_delivery_order r

let time_suite ~repeats suite r =
  let result = ref [] in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to repeats do
    result := suite r
  done;
  ((Unix.gettimeofday () -. t0) /. float_of_int repeats, !result)

let sorted = List.sort_uniq String.compare

let bench_row ~seed ~repeats ~compare_naive t n =
  let r, run_wall_s = generate_run t ~seed ~n in
  let fast_core_s, _ = time_suite ~repeats fast_core r in
  let fast_causal_s, causal_v = time_suite ~repeats fast_causal r in
  let fast_check_s = fast_core_s +. fast_causal_s in
  (* Integrity, validity and agreement must match their oracles list for
     list, order included; the other checks as sets of strings. *)
  let exact =
    [
      (Harness.Checker.uniform_integrity, Oracle.uniform_integrity);
      (Harness.Checker.validity, Oracle.validity);
      (Harness.Checker.uniform_agreement, Oracle.uniform_agreement);
    ]
  in
  let fast_v =
    List.concat_map (fun (fast, _) -> fast r) exact
    @ Harness.Checker.uniform_prefix_order r
    @ Harness.Checker.genuineness r
    @ causal_v
  in
  let naive =
    if compare_naive then Some (time_suite ~repeats:1 naive_suite r)
    else None
  in
  let differential_ok =
    Option.map
      (fun (_, naive_v) ->
        sorted fast_v = sorted naive_v
        && List.for_all (fun (fast, oracle) -> fast r = oracle r) exact)
      naive
  in
  {
    protocol = t.name;
    n_msgs = n;
    deliveries = List.length r.Harness.Run_result.deliveries;
    casts = List.length r.Harness.Run_result.casts;
    trace_len = Runtime.Trace.length r.Harness.Run_result.trace;
    events = r.Harness.Run_result.events_executed;
    run_wall_s;
    fast_core_s;
    fast_causal_s;
    fast_check_s;
    naive_check_s = Option.map fst naive;
    violations_fast = List.length fast_v;
    differential_ok;
  }

let json_of_row r =
  let open Harness.Bench_json in
  Obj
    [
      ("protocol", String r.protocol);
      ("n_msgs", Int r.n_msgs);
      ("deliveries", Int r.deliveries);
      ("casts", Int r.casts);
      ("trace_len", Int r.trace_len);
      ("events", Int r.events);
      ("run_wall_s", float 6 r.run_wall_s);
      ("events_per_s", float 0 (float_of_int r.events /. r.run_wall_s));
      ("fast_core_s", float 6 r.fast_core_s);
      ( "fast_core_us_per_delivery",
        float 3 (1e6 *. r.fast_core_s /. float_of_int (max 1 r.deliveries)) );
      ("fast_causal_s", float 6 r.fast_causal_s);
      ("fast_check_s", float 6 r.fast_check_s);
      ("naive_check_s", opt (float 6) r.naive_check_s);
      ( "checker_speedup",
        match r.naive_check_s with
        | Some n when r.fast_check_s > 0. -> float 2 (n /. r.fast_check_s)
        | _ -> Null );
      ("violations_fast", Int r.violations_fast);
      ("differential_ok", opt (fun b -> Bool b) r.differential_ok);
    ]

let parse_scales s =
  String.split_on_char ',' s
  |> List.map (fun n ->
         match int_of_string_opt n with
         | Some n -> n
         | None -> raise (Arg.Bad ("bad scale " ^ n)))

let () =
  let seed = ref 7 in
  let scales = ref [ 25; 50; 100; 200 ] in
  let fast_scales = ref [ 400; 800; 1600; 3200 ] in
  let repeats = ref 3 in
  let out = ref "BENCH_verify.json" in
  Harness.Bench_json.parse_flags
    ~usage:
      "usage: verify_bench [--seed S] [--scales N,..] [--fast-scales N,..] \
       [--repeats R] [--out PATH]"
    [
      ("--seed", Arg.Set_int seed, "S workload seed (default 7)");
      ( "--scales",
        Arg.String (fun v -> scales := parse_scales v),
        "N,.. scales checked fast and naive (default 25,50,100,200)" );
      ( "--fast-scales",
        Arg.String
          (fun v -> fast_scales := if v = "" then [] else parse_scales v),
        "N,.. fast-only scales (default 400,800,1600,3200)" );
      ("--repeats", Arg.Set_int repeats, "R timing repeats (default 3)");
      ("--out", Arg.Set_string out, "PATH output file (default BENCH_verify.json)");
    ];
  let seed = !seed and repeats = max 1 !repeats in
  Printf.printf
    "verify_bench: %d protocols, compared scales [%s], fast-only [%s], \
     seed %d\n\
     %!"
    (List.length matrix)
    (String.concat "," (List.map string_of_int !scales))
    (String.concat "," (List.map string_of_int !fast_scales))
    seed;
  let rows =
    List.concat_map
      (fun t ->
        List.map
          (fun (n, compare_naive) ->
            let row = bench_row ~seed ~repeats ~compare_naive t n in
            Printf.printf
              "  %-6s n=%4d  del=%5d  run %7.3fs  core %8.5fs  causal \
               %8.5fs  %s\n%!"
              row.protocol row.n_msgs row.deliveries row.run_wall_s
              row.fast_core_s row.fast_causal_s
              (match row.naive_check_s with
              | Some s ->
                Printf.sprintf "naive %8.5fs  %7.1fx%s" s
                  (s /. row.fast_check_s)
                  (match row.differential_ok with
                  | Some true -> ""
                  | Some false -> "  DIFFERENTIAL MISMATCH"
                  | None -> "")
              | None -> "naive skipped");
            row)
          (List.map (fun n -> (n, true)) !scales
          @ List.map (fun n -> (n, false)) !fast_scales))
      matrix
  in
  (* The headline number: the worst checker speedup among the rows of the
     largest compared scale. *)
  let largest = List.fold_left max 0 !scales in
  let speedup_at_largest =
    List.filter_map
      (fun r ->
        match r.naive_check_s with
        | Some n when r.n_msgs = largest && r.fast_check_s > 0. ->
          Some (n /. r.fast_check_s)
        | _ -> None)
      rows
    |> List.fold_left min infinity
  in
  let mismatches =
    List.filter (fun r -> r.differential_ok = Some false) rows
  in
  Printf.printf "  speedup at n=%d: %s\n%!" largest
    (if speedup_at_largest = infinity then "n/a"
     else Printf.sprintf "%.1fx" speedup_at_largest);
  let open Harness.Bench_json in
  write ~schema:"amcast-bench-verify/v1" ~out:!out
    ~gates:[ ("no_differential_mismatches", mismatches = []) ]
    [
      ( "matrix",
        Obj
          [
            ("seed", Int seed);
            ("repeats", Int repeats);
            ("scales", ints !scales);
            ("fast_only_scales", ints !fast_scales);
            ( "protocols",
              strings
                (List.map (fun (t : Amcast.Catalogue.entry) -> t.name) matrix) );
          ] );
      ("results", List (List.map json_of_row rows));
      ( "checker_speedup_at_largest_compared",
        if speedup_at_largest = infinity then Null
        else float 2 speedup_at_largest );
      ("differential_mismatches", Int (List.length mismatches));
    ]
