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

let fmt_opt_f = function
  | Some x -> Printf.sprintf "%.2f" x
  | None -> "null"

let fmt_opt_i = function Some x -> string_of_int x | None -> "null"

let json_of_run c =
  Printf.sprintf
    "{ \"violations\": %d, \"delivered\": %d, \"mean_degree\": %s, \
     \"max_degree\": %s, \"mean_latency_ms\": %s, \"p95_latency_ms\": %s, \
     \"throughput_msg_per_vs\": %.2f, \"events\": %d, \"bypassed\": %d, \
     \"ordered\": %d, \"wall_s\": %.6f }"
    (List.length c.violations)
    c.delivered (fmt_opt_f c.mean_degree) (fmt_opt_i c.max_degree)
    (fmt_opt_f c.mean_latency_ms)
    (fmt_opt_f c.p95_latency_ms)
    c.throughput_v c.events c.bypassed c.ordered c.wall_s

let json_of_cell c =
  Printf.sprintf
    "    { \"conflict_rate_pct\": %d, \"keys\": %d,\n\
    \      \"a1\": %s,\n\
    \      \"generic_total\": %s,\n\
    \      \"generic_key\": %s }"
    c.pct c.keys (json_of_run c.a1)
    (json_of_run c.generic_total)
    (json_of_run c.generic_key)

let () =
  let seed = ref 0 in
  let out = ref "BENCH_generic.json" in
  let messages = ref 150 in
  let explicit_messages = ref false in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some s -> seed := s
      | None ->
        Printf.eprintf "generic_bench: --seed must be an integer\n";
        exit 2);
      parse rest
    | "--messages" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n > 0 ->
        messages := n;
        explicit_messages := true
      | _ ->
        Printf.eprintf "generic_bench: --messages must be a positive integer\n";
        exit 2);
      parse rest
    | "--smoke" :: rest ->
      if not !explicit_messages then messages := 24;
      parse rest
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | arg :: _ ->
      Printf.eprintf "generic_bench: unknown argument %S\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
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
    Printf.printf
      "  rate %3d%%  mean-latency ms %s/%s/%s  mean-degree %s/%s/%s  \
       bypassed %d  ordered %d  (a1/generic-total/generic-key)\n\
       %!"
      pct
      (fmt_opt_f a1.mean_latency_ms)
      (fmt_opt_f generic_total.mean_latency_ms)
      (fmt_opt_f generic_key.mean_latency_ms)
      (fmt_opt_f a1.mean_degree)
      (fmt_opt_f generic_total.mean_degree)
      (fmt_opt_f generic_key.mean_degree)
      generic_key.bypassed generic_key.ordered;
    c
  in
  let cells = List.map cell_of rates in
  (* --- gates --- *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun c ->
      List.iter
        (fun (who, (r : cell_run)) ->
          List.iter
            (fun v -> fail "rate %d%%: %s violation: %s" c.pct who v)
            r.violations)
        [
          ("a1", c.a1);
          ("generic-total", c.generic_total);
          ("generic-key", c.generic_key);
        ])
    cells;
  let hundred = List.find (fun c -> c.pct = 100) cells in
  let seqs_identical = hundred.generic_key.seqs = hundred.generic_total.seqs in
  if not seqs_identical then
    fail
      "100%% conflict: generic-key delivery sequences diverge from \
       generic-total";
  let consistent = replicas_consistent topo hundred.generic_key in
  if not consistent then
    fail "100%% conflict: same-group replicas applied different logs";
  (* Verdict bit-equivalence on the 100% run: rerun both checkers on the
     same violation sets — both must be empty, hence equal; already
     collected above (generic-key used the relaxed checker, generic-total
     the prefix checker, and the sequences are identical). *)
  let verdicts_identical =
    hundred.generic_key.violations = hundred.generic_total.violations
  in
  if not verdicts_identical then
    fail "100%% conflict: relaxed and total-order verdicts differ";
  let low_win =
    List.filter_map
      (fun c ->
        if c.pct > 10 then None
        else
          let better a b =
            match (a, b) with Some x, Some y -> x < y | _ -> false
          in
          let win =
            better c.generic_key.mean_latency_ms c.a1.mean_latency_ms
            || better c.generic_key.mean_degree c.a1.mean_degree
          in
          if not win then
            fail
              "rate %d%%: generic-key shows no latency or degree win over a1"
              c.pct;
          Some (c.pct, win))
      cells
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"amcast-bench-generic/v1\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"generated_unix_time\": %.0f,\n" (Unix.gettimeofday ()));
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string buf
    (Printf.sprintf "  \"groups\": %d, \"d\": %d, \"messages\": %d,\n" groups
       per_group messages);
  Buffer.add_string buf "  \"cells\": [\n";
  Buffer.add_string buf (String.concat ",\n" (List.map json_of_cell cells));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"equivalence_100\": { \"sequences_identical\": %b, \
        \"verdicts_identical\": %b, \"replicas_consistent\": %b },\n"
       seqs_identical verdicts_identical consistent);
  Buffer.add_string buf
    (Printf.sprintf "  \"low_conflict_win\": %b,\n"
       (List.for_all snd low_win));
  Buffer.add_string buf
    (Printf.sprintf "  \"gates_failed\": %d\n" (List.length !failures));
  Buffer.add_string buf "}\n";
  let oc = open_out !out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  wrote %s (%d cells)\n%!" !out (List.length cells);
  if !failures <> [] then begin
    List.iter (Printf.eprintf "generic_bench: FAIL — %s\n") (List.rev !failures);
    exit 1
  end
