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
  cell : Mc.Trace_file.t;
  compare_naive : bool;
}

let global_cast at origin payload = (at, origin, [ 0; 1 ], payload)

let row ?(reorder_bound = max_int) ~compare_naive name protocol sizes casts =
  {
    name;
    cell = Mc.Trace_file.make ~reorder_bound ~casts ~protocol ~sizes ();
    compare_naive;
  }

let matrix =
  [
    (* Small enough for the unreduced enumeration: the POR differential. *)
    row "a1_1x1_c1" "a1" [ 1; 1 ]
      [ global_cast 1_000 0 "m0" ]
      ~compare_naive:true;
    (* The acceptance configuration: 2 groups x 2 processes, 2 global
       casts, exhaustive under delay bound 2 — the headline reduction. *)
    row "a1_2x2_c2_d2" "a1" [ 2; 2 ]
      [ global_cast 1_000 0 "m0"; global_cast 2_000 0 "m1" ]
      ~reorder_bound:2 ~compare_naive:true;
    (* Breadth rows, POR only. *)
    row "a2_2x2_c2_d2" "a2" [ 2; 2 ]
      [ global_cast 1_000 0 "m0"; global_cast 2_000 0 "m1" ]
      ~reorder_bound:2 ~compare_naive:false;
    row "fritzke_1x1_c1" "fritzke" [ 1; 1 ]
      [ global_cast 1_000 0 "m0" ]
      ~compare_naive:false;
    row "optimistic_1x2_c2" "optimistic" [ 1; 2 ]
      [ global_cast 1_000 0 "m0"; global_cast 2_000 1 "m1" ]
      ~compare_naive:false;
  ]

type side = {
  stats : Mc.Explorer.stats;
  violated : bool;
  outcomes : int list;  (* sorted distinct terminal-outcome digests *)
  wall_s : float;
}

let run_side c ~por =
  let cell = Result.get_ok (Mc.Trace_file.cell c.cell) in
  let t0 = Unix.gettimeofday () in
  let o = cell.explore { Mc.Explorer.default_opts with por } in
  {
    stats = o.stats;
    violated = o.violation <> None;
    outcomes = o.outcome_digests;
    wall_s = Unix.gettimeofday () -. t0;
  }

type row = {
  config : config;
  por : side;
  naive : side option;
}

let rate n wall = float_of_int n /. Float.max wall 1e-9

let reduction r =
  Option.map
    (fun n ->
      float_of_int n.stats.interleavings
      /. float_of_int (max 1 r.por.stats.interleavings))
    r.naive

let json_of_side s =
  let open Harness.Bench_json in
  Obj
    [
      ("interleavings", Int s.stats.interleavings);
      ("events", Int s.stats.events);
      ("replays", Int s.stats.replays);
      ("sleep_prunes", Int s.stats.sleep_prunes);
      ("peak_depth", Int s.stats.peak_depth);
      ("exhaustive", Bool s.stats.exhaustive);
      ("wall_s", float 6 s.wall_s);
      ("states_per_s", float 0 (rate s.stats.interleavings s.wall_s));
      ("events_per_s", float 0 (rate s.stats.events s.wall_s));
    ]

let json_of_row r =
  let open Harness.Bench_json in
  let c = r.config.cell in
  Obj
    [
      ("name", String r.config.name);
      ("protocol", String c.protocol);
      ("sizes", ints c.sizes);
      ("casts", Int (List.length c.casts));
      ( "reorder_bound",
        if c.reorder_bound = max_int then Null else Int c.reorder_bound );
      ("por", json_of_side r.por);
      ("naive", opt json_of_side r.naive);
      ("reduction_factor", opt (float 2) (reduction r));
      ( "outcomes_equal",
        opt (fun n -> Bool (n.outcomes = r.por.outcomes)) r.naive );
      ("distinct_outcomes", Int (List.length r.por.outcomes));
      ("violation", Bool r.por.violated);
    ]

(* The soundness differential, one named assertion per condition. *)
let gates r =
  let name = r.config.name in
  [ (name ^ "_por_exhaustive", r.por.stats.exhaustive);
    (name ^ "_clean", not r.por.violated) ]
  @
  match (r.naive, reduction r) with
  | Some n, Some red ->
    [
      (name ^ "_naive_exhaustive", n.stats.exhaustive);
      (name ^ "_outcomes_equal", n.outcomes = r.por.outcomes);
      (name ^ "_reduction_floor", not (red < min_reduction));
    ]
  | _ -> []

let () =
  let out = ref "BENCH_mc.json" in
  Harness.Bench_json.parse_flags ~usage:"usage: mc_bench [--out PATH]"
    [ ("--out", Arg.Set_string out, "PATH output file (default BENCH_mc.json)") ];
  Printf.printf "mc_bench: %d configurations (%d with naive comparison)\n%!"
    (List.length matrix)
    (List.length (List.filter (fun c -> c.compare_naive) matrix));
  let rows =
    List.map
      (fun c ->
        let por = run_side c ~por:true in
        let naive = if c.compare_naive then Some (run_side c ~por:false) else None in
        let r = { config = c; por; naive } in
        Printf.printf
          "  %-18s por %6d states %8.3fs (%7.0f states/s, %7.0f events/s)%s\n%!"
          c.name por.stats.interleavings por.wall_s
          (rate por.stats.interleavings por.wall_s)
          (rate por.stats.events por.wall_s)
          (match (naive, reduction r) with
          | Some n, Some red ->
            Printf.sprintf "  naive %6d states %8.3fs  %.0fx" n.stats.interleavings
              n.wall_s red
          | _ -> "");
        r)
      matrix
  in
  let gates = List.concat_map gates rows in
  let open Harness.Bench_json in
  write ~schema:"amcast-bench-mc/v1" ~out:!out ~gates
    [
      ("min_reduction_floor", float 0 min_reduction);
      ("results", List (List.map json_of_row rows));
      ( "assertion_failures",
        Int (List.length (List.filter (fun (_, ok) -> not ok) gates)) );
    ]
