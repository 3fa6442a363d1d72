(* mc_bench — model-checker exploration baselines.

   Runs the DPOR explorer over a fixed matrix of tiny configurations and
   writes BENCH_mc.json so the exploration-perf trajectory (states/sec,
   interleavings, POR reduction factor) is tracked across PRs alongside
   the other BENCH_*.json files.

   On the compared configurations the explorer runs twice — naive (no
   reduction) and with sleep-set POR — and the bench asserts the
   soundness differential: both runs are exhaustive, reach the same set
   of distinct terminal outcomes, find no violation, and the reduction
   factor is at least MIN_REDUCTION (5x). The naive enumeration is
   exponential, so larger configurations run POR-only for breadth. Any
   assertion failure exits non-zero.

   Usage: mc_bench [--out PATH]   (default ./BENCH_mc.json) *)

let min_reduction = 5.0

type config = {
  name : string;
  protocol : string;
  sizes : int list;
  casts : (int * int * int list * string) list;  (* at_us, origin, gids, payload *)
  reorder : int;  (* delay bound; max_int = unlimited *)
  compare_naive : bool;
}

let global_cast at origin payload = (at, origin, [ 0; 1 ], payload)

let matrix =
  [
    (* Small enough for the unreduced enumeration: the POR differential. *)
    {
      name = "a1_1x1_c1";
      protocol = "a1";
      sizes = [ 1; 1 ];
      casts = [ global_cast 1_000 0 "m0" ];
      reorder = max_int;
      compare_naive = true;
    };
    (* The acceptance configuration: 2 groups x 2 processes, 2 global
       casts, exhaustive under delay bound 2 — the headline reduction. *)
    {
      name = "a1_2x2_c2_d2";
      protocol = "a1";
      sizes = [ 2; 2 ];
      casts = [ global_cast 1_000 0 "m0"; global_cast 2_000 0 "m1" ];
      reorder = 2;
      compare_naive = true;
    };
    (* Breadth rows, POR only. *)
    {
      name = "a2_2x2_c2_d2";
      protocol = "a2";
      sizes = [ 2; 2 ];
      casts = [ global_cast 1_000 0 "m0"; global_cast 2_000 0 "m1" ];
      reorder = 2;
      compare_naive = false;
    };
    {
      name = "fritzke_1x1_c1";
      protocol = "fritzke";
      sizes = [ 1; 1 ];
      casts = [ global_cast 1_000 0 "m0" ];
      reorder = max_int;
      compare_naive = false;
    };
    {
      name = "optimistic_1x2_c2";
      protocol = "optimistic";
      sizes = [ 1; 2 ];
      casts = [ global_cast 1_000 0 "m0"; global_cast 2_000 1 "m1" ];
      reorder = max_int;
      compare_naive = false;
    };
  ]

type side = {
  interleavings : int;
  events : int;
  replays : int;
  sleep_prunes : int;
  peak_depth : int;
  exhaustive : bool;
  violated : bool;
  outcomes : int list;  (* sorted distinct terminal-outcome digests *)
  wall_s : float;
}

let run_side c ~por =
  let (module P : Amcast.Protocol.S) =
    (Option.get (Amcast.Catalogue.find c.protocol)).proto
  in
  let module E = Mc.Explorer.Make (P) in
  let topology = Net.Topology.make ~sizes:c.sizes in
  let workload =
    List.map
      (fun (at, origin, dest, payload) ->
        { Harness.Workload.at = Des.Sim_time.of_us at; origin; dest; payload })
      c.casts
  in
  let s = E.make_setup ~reorder_bound:c.reorder ~topology workload in
  let opts = { E.default_opts with E.por } in
  let t0 = Unix.gettimeofday () in
  let o = E.explore ~opts s in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    interleavings = o.E.stats.E.interleavings;
    events = o.E.stats.E.events;
    replays = o.E.stats.E.replays;
    sleep_prunes = o.E.stats.E.sleep_prunes;
    peak_depth = o.E.stats.E.peak_depth;
    exhaustive = o.E.stats.E.exhaustive;
    violated = o.E.violation <> None;
    outcomes = o.E.outcome_digests;
    wall_s;
  }

type row = {
  config : config;
  por : side;
  naive : side option;
}

let rate n wall = float_of_int n /. Float.max wall 1e-9

let json_of_side s =
  Printf.sprintf
    "{ \"interleavings\": %d, \"events\": %d, \"replays\": %d, \
     \"sleep_prunes\": %d, \"peak_depth\": %d, \"exhaustive\": %b, \
     \"wall_s\": %.6f, \"states_per_s\": %.0f, \"events_per_s\": %.0f }"
    s.interleavings s.events s.replays s.sleep_prunes s.peak_depth
    s.exhaustive s.wall_s
    (rate s.interleavings s.wall_s)
    (rate s.events s.wall_s)

let json_of_row r =
  let c = r.config in
  let reduction =
    match r.naive with
    | Some n ->
      Printf.sprintf "%.2f"
        (float_of_int n.interleavings /. float_of_int (max 1 r.por.interleavings))
    | None -> "null"
  in
  let outcomes_equal =
    match r.naive with
    | Some n -> string_of_bool (n.outcomes = r.por.outcomes)
    | None -> "null"
  in
  Printf.sprintf
    {|    {
      "name": "%s",
      "protocol": "%s",
      "sizes": [%s],
      "casts": %d,
      "reorder_bound": %s,
      "por": %s,
      "naive": %s,
      "reduction_factor": %s,
      "outcomes_equal": %s,
      "distinct_outcomes": %d,
      "violation": %b
    }|}
    c.name c.protocol
    (String.concat ", " (List.map string_of_int c.sizes))
    (List.length c.casts)
    (if c.reorder = max_int then "null" else string_of_int c.reorder)
    (json_of_side r.por)
    (match r.naive with
    | Some n -> json_of_side n
    | None -> "null")
    reduction outcomes_equal
    (List.length r.por.outcomes)
    r.por.violated

let () =
  let out = ref "BENCH_mc.json" in
  let rec parse = function
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | [] -> ()
    | a :: _ ->
      Printf.eprintf "mc_bench: unknown argument %s\nusage: mc_bench [--out PATH]\n" a;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  Printf.printf "mc_bench: %d configurations (%d with naive comparison)\n%!"
    (List.length matrix)
    (List.length (List.filter (fun c -> c.compare_naive) matrix));
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        failures := m :: !failures;
        Printf.printf "  ASSERT FAILED: %s\n%!" m)
      fmt
  in
  let rows =
    List.map
      (fun c ->
        let por = run_side c ~por:true in
        let naive = if c.compare_naive then Some (run_side c ~por:false) else None in
        Printf.printf
          "  %-18s por %6d states %8.3fs (%7.0f states/s, %7.0f events/s)%s\n%!"
          c.name por.interleavings por.wall_s
          (rate por.interleavings por.wall_s)
          (rate por.events por.wall_s)
          (match naive with
          | Some n ->
            Printf.sprintf "  naive %6d states %8.3fs  %.0fx" n.interleavings
              n.wall_s
              (float_of_int n.interleavings /. float_of_int (max 1 por.interleavings))
          | None -> "");
        if not por.exhaustive then fail "%s: POR exploration not exhaustive" c.name;
        if por.violated then fail "%s: unexpected violation" c.name;
        (match naive with
        | Some n ->
          if not n.exhaustive then fail "%s: naive exploration not exhaustive" c.name;
          if n.outcomes <> por.outcomes then
            fail "%s: naive and POR terminal outcomes differ" c.name;
          let red =
            float_of_int n.interleavings /. float_of_int (max 1 por.interleavings)
          in
          if red < min_reduction then
            fail "%s: POR reduction %.2fx below the %.0fx floor" c.name red
              min_reduction
        | None -> ());
        { config = c; por; naive })
      matrix
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"amcast-bench-mc/v1\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"generated_unix_time\": %.0f,\n" (Unix.gettimeofday ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"min_reduction_floor\": %.0f,\n" min_reduction);
  Buffer.add_string buf "  \"results\": [\n";
  Buffer.add_string buf (String.concat ",\n" (List.map json_of_row rows));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"assertion_failures\": %d\n" (List.length !failures));
  Buffer.add_string buf "}\n";
  let oc = open_out !out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  wrote %s\n%!" !out;
  if !failures <> [] then begin
    Printf.eprintf "mc_bench: FAIL — %d assertion(s)\n" (List.length !failures);
    exit 1
  end
