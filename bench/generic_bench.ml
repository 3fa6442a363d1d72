(* generic_bench — the conflict-awareness payoff of the generic multicast.

   Sweeps conflict rates {0, 1, 10, 50, 100}% over one seeded Poisson
   multicast workload per rate and runs three deployments on identical
   casts:

   - a1           — the paper's genuine atomic multicast (total order);
   - generic-total — the generic protocol under Conflict.total (its
     Skeen-equivalent total-order limit, isolating the protocol swap);
   - generic-key  — the generic protocol under Conflict.payload_key (the
     conflict-aware mode the rate knob feeds).

   Writes BENCH_generic.json with per-cell latency degrees, delivery
   latencies and virtual-time throughput. Two properties gate the exit
   code:

   - equivalence at 100% conflict (rate 1, one key: every pair
     conflicts): generic-key must produce per-process delivery sequences
     bit-identical to generic-total, the relaxed conflict-order checker
     and the total-order prefix checker must return identical verdicts on
     that run, and same-group replicas must hold identical logs
     (consistency); any divergence exits non-zero;
   - low-conflict win: at every rate <= 10% generic-key must beat a1 on
     mean delivery latency or mean latency degree — the ROADMAP's
     "biggest algorithmic speedup" claim, held to by the bench.

   All runs must also pass their correctness checks (relaxed checker for
   generic-key, full prefix order for the total-order runs).

   Usage: generic_bench [--seed S] [--messages N] [--smoke] [--out PATH]
   Defaults: seed 0, 150 messages (24 with --smoke), BENCH_generic.json. *)

open Des
open Net

let crisp = Harness.Figure1.crisp

(* Conflict-rate sweep: percent, workload rate, distinct keys. The 100%
   column uses a single key so that {e every} pair conflicts — the
   total-order limit the equivalence assertion is about; the partial
   columns use the default Zipf-skewed key population. *)
let rates = [ (0, 0.0, 16); (1, 0.01, 16); (10, 0.1, 16); (50, 0.5, 16); (100, 1.0, 1) ]

type cell_run = {
  violations : string list;
  delivered : int;
  mean_degree : float option;
  max_degree : int option;
  mean_latency_ms : float option;
  p95_latency_ms : float option;
  throughput_v : float; (* delivered per virtual second *)
  events : int;
  bypassed : int;
  ordered : int;
  wall_s : float;
  seqs : Runtime.Msg_id.t list array; (* per-pid delivery id sequences *)
}

let mean_degree_of r =
  let degs =
    List.filter_map snd (Harness.Metrics.latency_degrees r)
    |> List.map float_of_int
  in
  match degs with
  | [] -> None
  | _ -> Some (List.fold_left ( +. ) 0.0 degs /. float_of_int (List.length degs))

let run_cell (module P : Amcast.Protocol.S) ~config ~conflict_check ~seed
    ~topo ~workload =
  let module R = Harness.Runner.Make (P) in
  let t0 = Unix.gettimeofday () in
  let dep = R.deploy ~seed ~latency:crisp ~config topo in
  ignore (R.schedule dep workload);
  let r = R.run_deployment dep in
  let wall_s = Unix.gettimeofday () -. t0 in
  let stats =
    List.concat_map (fun pid -> P.stats (R.node dep pid))
      (Topology.all_pids topo)
  in
  let stat label =
    List.fold_left
      (fun acc (l, n) -> if l = label then acc + n else acc)
      0 stats
  in
  let end_s = float_of_int (Sim_time.to_us r.end_time) /. 1e6 in
  {
    violations = Harness.Checker.check_all ?conflict:conflict_check r;
    delivered = Harness.Metrics.delivered_count r;
    mean_degree = mean_degree_of r;
    max_degree = Harness.Metrics.max_latency_degree r;
    mean_latency_ms = Harness.Metrics.mean_delivery_latency_ms r;
    p95_latency_ms = Harness.Metrics.delivery_latency_percentile_ms r 95.0;
    throughput_v =
      (if end_s > 0.0 then float_of_int (Harness.Metrics.delivered_count r) /. end_s
       else 0.0);
    events = r.events_executed;
    bypassed = stat "generic.bypassed";
    ordered = stat "generic.ordered";
    wall_s;
    seqs =
      Array.of_list
        (List.map
           (fun pid ->
             List.map
               (fun (m : Amcast.Msg.t) -> m.id)
               (Harness.Run_result.sequence_of r pid))
           (Topology.all_pids topo));
  }

type cell = {
  pct : int;
  keys : int;
  a1 : cell_run;
  generic_total : cell_run;
  generic_key : cell_run;
}

(* Same-group replicas must end with identical delivery sequences — the
   Rsm.check_consistency invariant, read off the run's sequences. *)
let replicas_consistent topo (c : cell_run) =
  List.for_all
    (fun g ->
      match Topology.members topo g with
      | [] | [ _ ] -> true
      | first :: rest ->
        List.for_all (fun pid -> c.seqs.(pid) = c.seqs.(first)) rest)
    (Topology.all_groups topo)

let json_of_run c =
  let open Harness.Bench_json in
  Obj
    [
      ("violations", Int (List.length c.violations));
      ("delivered", Int c.delivered);
      ("mean_degree", opt (float 2) c.mean_degree);
      ("max_degree", opt (fun x -> Int x) c.max_degree);
      ("mean_latency_ms", opt (float 2) c.mean_latency_ms);
      ("p95_latency_ms", opt (float 2) c.p95_latency_ms);
      ("throughput_msg_per_vs", float 2 c.throughput_v);
      ("events", Int c.events);
      ("bypassed", Int c.bypassed);
      ("ordered", Int c.ordered);
      ("wall_s", float 6 c.wall_s);
    ]

let runs c =
  [ ("a1", c.a1); ("generic_total", c.generic_total); ("generic_key", c.generic_key) ]

let json_of_cell c =
  let open Harness.Bench_json in
  Obj
    ([ ("conflict_rate_pct", Int c.pct); ("keys", Int c.keys) ]
    @ List.map (fun (who, r) -> (who, json_of_run r)) (runs c))

let () =
  let seed = ref 0 in
  let out = ref "BENCH_generic.json" in
  let messages = ref 150 in
  let explicit_messages = ref false in
  Harness.Bench_json.parse_flags
    ~usage:"usage: generic_bench [--seed S] [--messages N] [--smoke] [--out PATH]"
    [
      ("--seed", Arg.Set_int seed, "S workload seed (default 0)");
      ( "--messages",
        Arg.Int
          (fun n ->
            if n <= 0 then raise (Arg.Bad "--messages must be a positive integer");
            messages := n;
            explicit_messages := true),
        "N casts per conflict rate (default 150)" );
      ( "--smoke",
        Arg.Unit (fun () -> if not !explicit_messages then messages := 24),
        " 24 casts unless --messages is given" );
      ("--out", Arg.Set_string out, "PATH output file (default BENCH_generic.json)");
    ];
  let seed = !seed and messages = !messages in
  let groups = 3 and per_group = 2 in
  let topo = Topology.symmetric ~groups ~per_group in
  Printf.printf
    "generic_bench: a1 vs generic across conflict rates, seed %d, %d \
     messages, %dx%d\n\
     %!"
    seed messages groups per_group;
  let cell_of (pct, rate, keys) =
    let workload =
      Harness.Workload.generate
        ~rng:(Rng.create (seed + 1))
        ~topology:topo ~n:messages ~dest:(Harness.Workload.Random_groups groups)
        ~arrival:(`Poisson (Sim_time.of_ms 25))
        ~conflict:(Harness.Workload.conflict_spec ~keys rate)
        ()
    in
    let a1 =
      run_cell
        (module Amcast.A1)
        ~config:Amcast.Protocol.Config.default ~conflict_check:None ~seed ~topo
        ~workload
    in
    let generic_total =
      run_cell
        (module Amcast.Generic)
        ~config:Amcast.Protocol.Config.default ~conflict_check:None ~seed ~topo
        ~workload
    in
    let generic_key =
      run_cell
        (module Amcast.Generic)
        ~config:
          {
            Amcast.Protocol.Config.default with
            conflict = Amcast.Conflict.payload_key;
          }
        ~conflict_check:(Some Amcast.Conflict.payload_key) ~seed ~topo
        ~workload
    in
    let c = { pct; keys; a1; generic_total; generic_key } in
    let f2 x = Harness.Bench_json.(to_string (opt (float 2) x)) in
    Printf.printf
      "  rate %3d%%  mean-latency ms %s/%s/%s  mean-degree %s/%s/%s  \
       bypassed %d  ordered %d  (a1/generic-total/generic-key)\n\
       %!"
      pct
      (f2 a1.mean_latency_ms)
      (f2 generic_total.mean_latency_ms)
      (f2 generic_key.mean_latency_ms)
      (f2 a1.mean_degree)
      (f2 generic_total.mean_degree)
      (f2 generic_key.mean_degree)
      generic_key.bypassed generic_key.ordered;
    c
  in
  let cells = List.map cell_of rates in
  List.iter
    (fun c ->
      List.iter
        (fun (who, r) ->
          List.iter
            (Printf.printf "  rate %d%%: %s violation: %s\n%!" c.pct who)
            r.violations)
        (runs c))
    cells;
  let hundred = List.find (fun c -> c.pct = 100) cells in
  let seqs_identical = hundred.generic_key.seqs = hundred.generic_total.seqs in
  let consistent = replicas_consistent topo hundred.generic_key in
  (* Both checkers' verdicts on the 100% run: generic-key used the relaxed
     checker, generic-total the prefix checker, and with identical
     sequences both must be empty, hence equal. *)
  let verdicts_identical =
    hundred.generic_key.violations = hundred.generic_total.violations
  in
  let low_win =
    List.filter_map
      (fun c ->
        if c.pct > 10 then None
        else
          let better a b =
            match (a, b) with Some x, Some y -> x < y | _ -> false
          in
          Some
            ( c.pct,
              better c.generic_key.mean_latency_ms c.a1.mean_latency_ms
              || better c.generic_key.mean_degree c.a1.mean_degree ))
      cells
  in
  let open Harness.Bench_json in
  write ~schema:"amcast-bench-generic/v1" ~out:!out
    ~gates:
      (List.concat_map
         (fun c ->
           List.map
             (fun (who, r) ->
               (Printf.sprintf "rate_%d_%s_clean" c.pct who, r.violations = []))
             (runs c))
         cells
      @ [
          ("sequences_identical_100", seqs_identical);
          ("replicas_consistent_100", consistent);
          ("verdicts_identical_100", verdicts_identical);
        ]
      @ List.map
          (fun (pct, win) -> (Printf.sprintf "low_conflict_win_rate_%d" pct, win))
          low_win)
    [
      ("seed", Int seed);
      ("groups", Int groups);
      ("d", Int per_group);
      ("messages", Int messages);
      ("cells", List (List.map json_of_cell cells));
      ( "equivalence_100",
        Obj
          [
            ("sequences_identical", Bool seqs_identical);
            ("verdicts_identical", Bool verdicts_identical);
            ("replicas_consistent", Bool consistent);
          ] );
      ("low_conflict_win", Bool (List.for_all snd low_win));
    ]
