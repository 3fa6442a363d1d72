(* campaign_bench — machine-readable campaign throughput baselines.

   Two cell families:

   - Campaign cells: a fixed, seeded scenario matrix (the same scenario
     list Harness.Campaign expands a seed to) through the campaign driver
     at every domain count in a {1, 2, 4, ...} sweep up to the machine's
     recommended count (always at least {1, 2}, so the cross-domain
     identity assertion runs even on a single-core host). Exits non-zero
     if any swept summary differs from the 1-domain one.

   - Scale cells (--scale full|smoke|off, default smoke): one large
     deployment — hundred-group topology, n=1000 processes at full
     scale — driven to quiescence with the trace recorder off, tracking
     events/sec, minor words allocated per delivery (the zero-alloc
     hot-path regression metric) and peak heap words, plus the wall time
     of the full checker pass over the run. Exits non-zero on a checker
     violation or a blown minor-words budget.

   Usage: campaign_bench [--runs N] [--seed S] [--scale full|smoke|off]
                         [--out PATH]
   Defaults: 128 runs per protocol, seed 7, --scale smoke,
   ./BENCH_campaign.json. *)

let matrix =
  List.filter
    (fun (e : Amcast.Catalogue.entry) ->
      List.mem e.name [ "a1"; "a2"; "fritzke" ])
    Amcast.Catalogue.all

type measurement = {
  domains : int;
  wall_s : float;
  scenarios_run : int;
  events : int;
  summaries : (string * Harness.Campaign.summary) list;
}

let measure ~domains ~runs ~seed =
  let t0 = Unix.gettimeofday () in
  let summaries =
    List.map
      (fun (t : Amcast.Catalogue.entry) ->
        ( t.name,
          Harness.Campaign.run_sharded t.proto ~broadcast_only:t.broadcast_only
            ~with_crashes:t.crash_tolerant ~expect_genuine:t.genuine ~domains
            ~seed ~runs () ))
      matrix
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    domains;
    wall_s;
    scenarios_run = List.length matrix * runs;
    events =
      List.fold_left
        (fun acc (_, s) -> acc + s.Harness.Campaign.total_steps)
        0 summaries;
    summaries;
  }

(* {1, 2, 4, ...} up to the recommended domain count, but never less than
   {1, 2}: the whole point of the sweep is to check sharded summaries
   against the 1-domain ones with real domain interleaving, and a
   single-core host would otherwise silently degrade the sweep to the
   1-domain case. *)
let sweep_domains () =
  let hi = max 2 (Harness.Pool.recommended_domains ()) in
  let rec go d acc = if d >= hi then List.rev (hi :: acc) else go (2 * d) (d :: acc) in
  go 1 []

let json_of_measurement ~baseline_wall m =
  let open Harness.Bench_json in
  Obj
    [
      ("domains", Int m.domains);
      ("wall_s", float 6 m.wall_s);
      ("scenarios", Int m.scenarios_run);
      ("events", Int m.events);
      ("scenarios_per_s", float 2 (float_of_int m.scenarios_run /. m.wall_s));
      ("events_per_s", float 0 (float_of_int m.events /. m.wall_s));
      ("speedup_vs_1_domain", float 3 (baseline_wall /. m.wall_s));
    ]

(* ------------------------------------------------------------------ *)
(* Scale cells. *)

type scale_cell = {
  sname : string;
  groups : int;
  per_group : int;
  casts : int;
  max_dest : int; (* dest-set size drawn uniformly in [1, max_dest] *)
}

let scale_full =
  { sname = "scale_100x10_100k"; groups = 100; per_group = 10;
    casts = 100_000; max_dest = 3 }

let scale_smoke =
  { sname = "scale_20x5_5k"; groups = 20; per_group = 5; casts = 5_000;
    max_dest = 3 }

(* Steady-state allocation ceiling, in minor-heap words per delivery
   event, for A1 under the throughput config on the scale topologies.
   This covers everything a delivery costs end to end — wire envelopes,
   consensus instances, R-MCast bookkeeping, harness delivery records —
   so it is nowhere near zero; what the slab refactor guarantees is that
   it stays *flat* as topologies grow (no per-delivery Hashtbl churn
   proportional to group count). Measured ~770 w/delivery on the 20x5
   cell and ~880 on the 100x10 cell (the modest growth is deeper
   consensus pipelining, not table churn); the ceiling leaves under 3x
   headroom over the worst cell. *)
let minor_words_budget = 2_500.0

type scale_result = {
  cell : scale_cell;
  n_processes : int;
  deliveries : int;
  s_events : int;
  s_wall : float;
  minor_words_per_delivery : float;
  top_heap_words : int;
  check_s : float;
  s_violations : string list;
  s_drained : bool;
}

let run_scale cell =
  let module R = Harness.Runner.Make (Amcast.A1) in
  let topo =
    Net.Topology.symmetric ~groups:cell.groups ~per_group:cell.per_group
  in
  let rng = Des.Rng.create 42 in
  let workload =
    Harness.Workload.generate ~rng ~topology:topo ~n:cell.casts
      ~dest:(Harness.Workload.Random_groups cell.max_dest)
      ~arrival:(`Poisson (Des.Sim_time.of_ms 5))
      ()
  in
  (* No trace at scale: the trace would dwarf the simulation's own
     memory (every send/receive event), and the only checkers that need
     it (genuineness, causal order) are covered at campaign scale. *)
  let dep =
    R.deploy ~seed:42 ~latency:Net.Latency.wan_default ~record_trace:false
      ~config:Amcast.Protocol.Config.throughput topo
  in
  ignore (R.schedule dep workload);
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = R.run_deployment ~max_steps:500_000_000 dep in
  let s_wall = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let deliveries = List.length r.Harness.Run_result.deliveries in
  let t1 = Unix.gettimeofday () in
  let s_violations = Harness.Checker.check_all ~check_quiescence:true r in
  let check_s = Unix.gettimeofday () -. t1 in
  {
    cell;
    n_processes = Net.Topology.n_processes topo;
    deliveries;
    s_events = r.Harness.Run_result.events_executed;
    s_wall;
    minor_words_per_delivery =
      (g1.Gc.minor_words -. g0.Gc.minor_words)
      /. float_of_int (max 1 deliveries);
    top_heap_words = g1.Gc.top_heap_words;
    check_s;
    s_violations;
    s_drained = r.Harness.Run_result.drained;
  }

let json_of_scale s =
  let open Harness.Bench_json in
  Obj
    [
      ("name", String s.cell.sname);
      ("protocol", String "a1");
      ("config", String "throughput");
      ("groups", Int s.cell.groups);
      ("per_group", Int s.cell.per_group);
      ("n_processes", Int s.n_processes);
      ("casts", Int s.cell.casts);
      ("deliveries", Int s.deliveries);
      ("events", Int s.s_events);
      ("wall_s", float 6 s.s_wall);
      ("events_per_s", float 0 (float_of_int s.s_events /. s.s_wall));
      ("minor_words_per_delivery", float 1 s.minor_words_per_delivery);
      ("minor_words_budget", float 1 minor_words_budget);
      ("top_heap_words", Int s.top_heap_words);
      ("check_s", float 6 s.check_s);
      ("drained", Bool s.s_drained);
      ("violations", Int (List.length s.s_violations));
    ]

let scale_gates s =
  let name = s.cell.sname in
  [
    (name ^ "_clean", s.s_violations = []);
    (name ^ "_drained", s.s_drained);
    ( name ^ "_minor_words_budget",
      not (s.minor_words_per_delivery > minor_words_budget) );
  ]

let () =
  let runs = ref 128 in
  let seed = ref 7 in
  let scale = ref `Smoke in
  let out = ref "BENCH_campaign.json" in
  Harness.Bench_json.parse_flags
    ~usage:
      "usage: campaign_bench [--runs N] [--seed S] [--scale full|smoke|off] \
       [--out PATH]"
    [
      ("--runs", Arg.Set_int runs, "N scenarios per protocol (default 128)");
      ("--seed", Arg.Set_int seed, "S campaign seed (default 7)");
      ( "--scale",
        Arg.Symbol
          ( [ "full"; "smoke"; "off" ],
            fun v ->
              scale :=
                match v with "full" -> `Full | "off" -> `Off | _ -> `Smoke ),
        " scale cells to run (default smoke)" );
      ("--out", Arg.Set_string out, "PATH output file (default BENCH_campaign.json)");
    ];
  let runs = !runs and seed = !seed in
  let sweep = sweep_domains () in
  Printf.printf
    "campaign_bench: %d protocols x %d scenarios, seed %d, domains {%s}\n%!"
    (List.length matrix) runs seed
    (String.concat "," (List.map string_of_int sweep));
  (* [sweep] starts at 1 domain: that row is the baseline for every row's
     summaries and speedup. *)
  let rows = List.map (fun d -> measure ~domains:d ~runs ~seed) sweep in
  let base = List.hd rows in
  List.iter
    (fun m ->
      Printf.printf "  sharded (%2dd)   : %7.3fs  %8d events  %.2fx%s\n%!"
        m.domains m.wall_s m.events
        (base.wall_s /. m.wall_s)
        (if m.summaries = base.summaries then "" else "  <-- DIVERGES"))
    rows;
  let identical = List.for_all (fun m -> m.summaries = base.summaries) rows in
  let violations =
    List.fold_left
      (fun acc (_, s) -> acc + s.Harness.Campaign.total_violations)
      0 base.summaries
  in
  let scale_cells =
    match !scale with
    | `Off -> []
    | `Smoke -> [ scale_smoke ]
    | `Full -> [ scale_smoke; scale_full ]
  in
  let scale_results =
    List.map
      (fun c ->
        Printf.printf "  scale %-18s: running (%d procs, %d casts)...\n%!"
          c.sname
          (c.groups * c.per_group)
          c.casts;
        let s = run_scale c in
        Printf.printf
          "  scale %-18s: %7.3fs  %9d events  %.0f ev/s  %.0f w/delivery\n%!"
          c.sname s.s_wall s.s_events
          (float_of_int s.s_events /. s.s_wall)
          s.minor_words_per_delivery;
        List.iter (Printf.printf "    violation: %s\n%!") s.s_violations;
        s)
      scale_cells
  in
  let open Harness.Bench_json in
  write ~schema:"amcast-bench-campaign/v3" ~out:!out
    ~gates:
      ([ ("summaries_identical", identical); ("no_violations", violations = 0) ]
      @ List.concat_map scale_gates scale_results)
    [
      ( "host",
        Obj
          [
            ("recommended_domains", Int (Harness.Pool.recommended_domains ()));
            ("swept_domains", ints sweep);
          ] );
      ( "matrix",
        Obj
          [
            ("seed", Int seed);
            ("runs_per_protocol", Int runs);
            ( "protocols",
              strings
                (List.map (fun (t : Amcast.Catalogue.entry) -> t.name) matrix) );
          ] );
      ( "results",
        List
          (List.map (json_of_measurement ~baseline_wall:base.wall_s) rows) );
      ("scale", List (List.map json_of_scale scale_results));
      ("summaries_identical", Bool identical);
      ("total_violations", Int violations);
    ]
