(* verify_bench — machine-readable verification-path baselines.

   Generates seeded runs at several message scales, times (a) the
   simulation itself (protocol-event throughput) and (b) the checker
   suite over the finished run, both through the indexed fast paths and
   through the retained naive reference implementations, and writes
   BENCH_verify.json so the verification-perf trajectory is tracked
   across PRs alongside BENCH_campaign.json.

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
      (* integrity + validity + agreement + prefix + genuineness: the
         single-pass suite, near-linear in deliveries + trace *)
  fast_causal_s : float;
      (* vector-clock reachability rows + seen-bitset scan:
         O(trace * processes + casts^2) *)
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
  Harness.Checker.Reference.uniform_prefix_order r
  @ Harness.Checker.Reference.genuineness r
  @ Harness.Checker.Reference.causal_delivery_order r

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
  let fast_v =
    Harness.Checker.uniform_prefix_order r
    @ Harness.Checker.genuineness r
    @ causal_v
  in
  let naive =
    if compare_naive then Some (time_suite ~repeats:1 naive_suite r)
    else None
  in
  let differential_ok =
    Option.map (fun (_, naive_v) -> sorted fast_v = sorted naive_v) naive
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
  let opt_f = function
    | Some v -> Printf.sprintf "%.6f" v
    | None -> "null"
  in
  let speedup =
    match r.naive_check_s with
    | Some n when r.fast_check_s > 0. ->
      Printf.sprintf "%.2f" (n /. r.fast_check_s)
    | _ -> "null"
  in
  Printf.sprintf
    {|    {
      "protocol": "%s",
      "n_msgs": %d,
      "deliveries": %d,
      "casts": %d,
      "trace_len": %d,
      "events": %d,
      "run_wall_s": %.6f,
      "events_per_s": %.0f,
      "fast_core_s": %.6f,
      "fast_core_us_per_delivery": %.3f,
      "fast_causal_s": %.6f,
      "fast_check_s": %.6f,
      "naive_check_s": %s,
      "checker_speedup": %s,
      "violations_fast": %d,
      "differential_ok": %s
    }|}
    r.protocol r.n_msgs r.deliveries r.casts r.trace_len r.events
    r.run_wall_s
    (float_of_int r.events /. r.run_wall_s)
    r.fast_core_s
    (1e6 *. r.fast_core_s /. float_of_int (max 1 r.deliveries))
    r.fast_causal_s r.fast_check_s
    (opt_f r.naive_check_s) speedup r.violations_fast
    (match r.differential_ok with
    | Some b -> string_of_bool b
    | None -> "null")

let parse_scales s = String.split_on_char ',' s |> List.map int_of_string

let () =
  let seed = ref 7 in
  let scales = ref [ 25; 50; 100; 200 ] in
  let fast_scales = ref [ 400; 800; 1600; 3200 ] in
  let repeats = ref 3 in
  let out = ref "BENCH_verify.json" in
  let rec parse = function
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--scales" :: v :: rest -> scales := parse_scales v; parse rest
    | "--fast-scales" :: v :: rest ->
      fast_scales := (if v = "" then [] else parse_scales v);
      parse rest
    | "--repeats" :: v :: rest -> repeats := int_of_string v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | a :: _ ->
      Printf.eprintf
        "verify_bench: unknown argument %s\n\
         usage: verify_bench [--seed S] [--scales N,..] [--fast-scales \
         N,..] [--repeats R] [--out PATH]\n"
        a;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
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
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"amcast-bench-verify/v1\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"generated_unix_time\": %.0f,\n"
       (Unix.gettimeofday ()));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"matrix\": { \"seed\": %d, \"repeats\": %d, \"scales\": [%s], \
        \"fast_only_scales\": [%s], \"protocols\": [%s] },\n"
       seed repeats
       (String.concat ", " (List.map string_of_int !scales))
       (String.concat ", " (List.map string_of_int !fast_scales))
       (String.concat ", "
          (List.map
             (fun (t : Amcast.Catalogue.entry) -> "\"" ^ t.name ^ "\"")
             matrix)));
  Buffer.add_string buf "  \"results\": [\n";
  Buffer.add_string buf (String.concat ",\n" (List.map json_of_row rows));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"checker_speedup_at_largest_compared\": %s,\n"
       (if speedup_at_largest = infinity then "null"
        else Printf.sprintf "%.2f" speedup_at_largest));
  Buffer.add_string buf
    (Printf.sprintf "  \"differential_mismatches\": %d\n"
       (List.length mismatches));
  Buffer.add_string buf "}\n";
  let oc = open_out !out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  wrote %s (speedup at n=%d: %s)\n%!" !out largest
    (if speedup_at_largest = infinity then "n/a"
     else Printf.sprintf "%.1fx" speedup_at_largest);
  if mismatches <> [] then begin
    Printf.eprintf
      "verify_bench: FAIL — %d scale(s) where fast and naive checkers \
       disagree\n"
      (List.length mismatches);
    exit 1
  end
