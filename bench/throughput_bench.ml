(* throughput_bench — saturation curves for the high-throughput lane.

   Drives A1 (Zipfian multicast with hot origins) and A2 (broadcast) with
   open-loop bursty arrivals over a grid of offered rates, on a network
   with a per-sender egress serialization cost (Network.set_tx_cost) so
   that load actually queues at the NIC instead of vanishing into the
   pure-latency model. Each cell runs twice — unbatched
   (Protocol.Config.default) and batched (Protocol.Config.throughput:
   cast batching + pipelined consensus) — and reports
   delivered msgs/sec of sim time plus p50/p99 cast-to-delivery latency.

   Two properties are checked; any failure exits non-zero:

   - floor: at the top offered rate the batched A1 lane must deliver at
     least 2x the messages of the unbatched lane within the same sim-time
     window (the saturation win the lane exists for);
   - safety: on faulty runs (deterministic crash schedules and generated
     nemesis plans) the batched lane and the unbatched Config.default
     must produce the same checker verdicts — batching and pipelining
     may change counts and timings, never correctness.

   Usage: throughput_bench [--seed S] [--out PATH] [--smoke]
   Defaults: seed 0, ./BENCH_throughput.json, full grid. *)

open Des
open Net

let crisp = Harness.Figure1.crisp

let ms = Sim_time.of_ms
let start = ms 1 (* Workload.generate default first-cast instant *)
let tx_cost = Sim_time.of_us 100
let burst_max = 4

(* ------------------------------------------------------------------ *)
(* Saturation cells. *)

type cell = {
  protocol : string;
  mode : string; (* "unbatched" | "batched" *)
  offered_rate : int; (* casts per second of sim time *)
  casts : int;
  delivered : int;
  delivered_rate : float; (* distinct delivered msgs / sec of sim window *)
  p50_ms : float option;
  p99_ms : float option;
  batches_formed : int;
  batched_casts : int;
  casts_per_batch_max : int;
  pipeline_depth_max : int;
  wall_s : float;
}

(* Open-loop bursty arrivals at a target offered rate: bursts of
   1..burst_max simultaneous casts, exponential gaps. Mean burst size is
   (1 + burst_max) / 2, so the mean gap is that over the rate. *)
let mk_workload ~seed ~topo ~dest ~origins ~rate ~duration_s =
  let rng = Rng.create seed in
  let n = int_of_float (float_of_int rate *. duration_s) in
  let mean_burst = float_of_int (1 + burst_max) /. 2. in
  let mean_gap =
    Sim_time.of_us
      (max 1 (int_of_float (mean_burst *. 1e6 /. float_of_int rate)))
  in
  Harness.Workload.generate ~rng ~topology:topo ~n ~dest
    ~arrival:(`Bursty (mean_gap, burst_max))
    ~origins ~origin_zipf:1.5 ()

let run_cell (type a) (module P : Amcast.Protocol.S with type t = a) ~mode
    ~config ~seed ~offered_rate ~window ~topo
    ~(workload : Harness.Workload.t) () =
  let module R = Harness.Runner.Make (P) in
  let t0 = Unix.gettimeofday () in
  (* No trace: saturation runs are large and the metrics below only need
     the cast/delivery event lists. *)
  let dep = R.deploy ~seed ~latency:crisp ~config ~record_trace:false topo in
  Network.set_tx_cost (Runtime.Engine.network (R.engine dep)) tx_cost;
  ignore (R.schedule dep workload);
  let until = Sim_time.add start window in
  let r = R.run_deployment ~until dep in
  let wall_s = Unix.gettimeofday () -. t0 in
  let delivered = Harness.Metrics.delivered_count r in
  let stat name =
    List.fold_left
      (fun acc pid ->
        acc
        + Option.value ~default:0
            (List.assoc_opt name (P.stats (R.node dep pid))))
      0 (Topology.all_pids topo)
  in
  let stat_max name =
    List.fold_left
      (fun acc pid ->
        max acc
          (Option.value ~default:0
             (List.assoc_opt name (P.stats (R.node dep pid)))))
      0 (Topology.all_pids topo)
  in
  let c =
    {
      protocol = P.name;
      mode;
      offered_rate;
      casts = List.length workload;
      delivered;
      delivered_rate =
        float_of_int delivered /. (Sim_time.to_ms_float window /. 1000.);
      p50_ms = Harness.Metrics.delivery_latency_percentile_ms r 50.;
      p99_ms = Harness.Metrics.delivery_latency_percentile_ms r 99.;
      batches_formed = stat "batches_formed";
      batched_casts = stat "batched_casts";
      casts_per_batch_max = stat_max "casts_per_batch_max";
      pipeline_depth_max = stat_max "pipeline_depth_max";
      wall_s;
    }
  in
  Printf.printf
    "  %-3s %-9s offered %5d/s  delivered %5d/%d (%7.0f/s)  p50 %s p99 %s  \
     batches %d depth %d\n\
     %!"
    P.name mode offered_rate delivered c.casts c.delivered_rate
    (match c.p50_ms with Some x -> Printf.sprintf "%6.1fms" x | None -> "-")
    (match c.p99_ms with Some x -> Printf.sprintf "%6.1fms" x | None -> "-")
    c.batches_formed c.pipeline_depth_max;
  c

(* ------------------------------------------------------------------ *)
(* Safety differentials: batched vs unbatched lane under faults.
   Verdicts (checker violation lists) must coincide — delivered counts
   may legitimately differ (a crash mid-batch can lose buffered casts of
   the crashed origin, which validity exempts). *)

type differential = {
  d_protocol : string;
  scenario : string; (* "crash" | "nemesis" *)
  d_seed : int;
  batched_violations : string list;
  unbatched_violations : string list;
}

let d_diverges d = d.batched_violations <> d.unbatched_violations

let run_differential (type a) (module P : Amcast.Protocol.S with type t = a)
    ~scenario ~seed ~dest () =
  let module R = Harness.Runner.Make (P) in
  let topo = Topology.symmetric ~groups:3 ~per_group:3 in
  let rng = Rng.create seed in
  let workload =
    Harness.Workload.generate ~rng ~topology:topo ~n:24 ~dest
      ~arrival:(`Poisson (ms 4)) ()
  in
  let check =
    match scenario with
    | `Crash ->
      (* One crash per group stays a minority everywhere; one origin dies
         mid-stream so batched buffers can be lost in flight. *)
      let faults =
        [
          Harness.Runner.crash ~at:(ms 20) 1;
          Harness.Runner.crash ~at:(ms 45) 4;
        ]
      in
      fun config ->
        Harness.Checker.check_all
          (R.run ~seed ~latency:crisp ~config ~faults topo workload)
    | `Nemesis ->
      let plan = Harness.Nemesis.generate ~rng ~topology:topo () in
      fun config ->
        Harness.Checker.check_all
          ~liveness_from:(Harness.Nemesis.liveness_from plan)
          (R.run ~seed ~latency:crisp ~config ~nemesis:plan topo workload)
  in
  let d =
    {
      d_protocol = P.name;
      scenario = (match scenario with `Crash -> "crash" | `Nemesis -> "nemesis");
      d_seed = seed;
      batched_violations = check Amcast.Protocol.Config.throughput;
      unbatched_violations = check Amcast.Protocol.Config.default;
    }
  in
  Printf.printf "  diff %-3s %-7s seed %d  batched %d violation(s), \
                 unbatched %d%s\n%!"
    d.d_protocol d.scenario d.d_seed
    (List.length d.batched_violations)
    (List.length d.unbatched_violations)
    (if d_diverges d then "  DIVERGENT" else "");
  if d_diverges d then
    List.iter
      (fun v -> Printf.printf "    batched: %s\n%!" v)
      d.batched_violations;
  d

(* ------------------------------------------------------------------ *)

let json_of_cell c =
  let open Harness.Bench_json in
  Obj
    [
      ("protocol", String c.protocol);
      ("mode", String c.mode);
      ("offered_rate", Int c.offered_rate);
      ("casts", Int c.casts);
      ("delivered", Int c.delivered);
      ("delivered_rate", float 1 c.delivered_rate);
      ("p50_ms", opt (float 3) c.p50_ms);
      ("p99_ms", opt (float 3) c.p99_ms);
      ("batches_formed", Int c.batches_formed);
      ("batched_casts", Int c.batched_casts);
      ("casts_per_batch_max", Int c.casts_per_batch_max);
      ("pipeline_depth_max", Int c.pipeline_depth_max);
      ("wall_s", float 6 c.wall_s);
    ]

let json_of_differential d =
  let open Harness.Bench_json in
  Obj
    [
      ("protocol", String d.d_protocol);
      ("scenario", String d.scenario);
      ("seed", Int d.d_seed);
      ("batched_violations", strings d.batched_violations);
      ("unbatched_violations", strings d.unbatched_violations);
      ("divergent", Bool (d_diverges d));
    ]

let () =
  let seed = ref 0 in
  let out = ref "BENCH_throughput.json" in
  let smoke = ref false in
  Harness.Bench_json.parse_flags
    ~usage:"usage: throughput_bench [--seed S] [--out PATH] [--smoke]"
    [
      ("--seed", Arg.Set_int seed, "S run seed (default 0)");
      ("--out", Arg.Set_string out, "PATH output file (default BENCH_throughput.json)");
      ("--smoke", Arg.Set smoke, " two rates and a shorter load span");
    ];
  let seed = !seed in
  let smoke = !smoke in
  let rates = if smoke then [ 1_000; 8_000 ] else [ 1_000; 2_000; 4_000; 8_000 ] in
  let duration_s = if smoke then 0.25 else 1.0 in
  (* Measurement window: the load span plus a grace period for in-flight
     tails. Saturated modes keep a growing backlog, so what they deliver
     inside the window is their saturation throughput. *)
  let grace = ms 500 in
  let window = Sim_time.add (Sim_time.of_sec duration_s) grace in
  let topo = Topology.symmetric ~groups:3 ~per_group:3 in
  (* Hot origins: all load from group 0, Zipf-skewed towards pid 0, so a
     few NICs carry the stream — the shape batching exists for. *)
  let origins = Topology.members topo 0 in
  Printf.printf
    "throughput_bench: saturation grid, seed %d, tx %dus, %s grid\n%!" seed
    (Sim_time.to_us tx_cost)
    (if smoke then "smoke" else "full");
  let cells =
    List.concat_map
      (fun rate ->
        let a1_wl =
          mk_workload ~seed ~topo
            ~dest:(Harness.Workload.Zipfian_groups { kmax = 2; theta = 1.0 })
            ~origins ~rate ~duration_s
        in
        let a2_wl =
          mk_workload ~seed ~topo ~dest:Harness.Workload.To_all_groups
            ~origins ~rate ~duration_s
        in
        let cell (module P : Amcast.Protocol.S) workload mode config =
          run_cell (module P) ~mode ~config ~seed ~offered_rate:rate ~window
            ~topo ~workload ()
        in
        [
          cell (module Amcast.A1) a1_wl "unbatched"
            Amcast.Protocol.Config.default;
          cell (module Amcast.A1) a1_wl "batched"
            Amcast.Protocol.Config.throughput;
          cell (module Amcast.A2) a2_wl "unbatched"
            Amcast.Protocol.Config.default;
          cell (module Amcast.A2) a2_wl "batched"
            Amcast.Protocol.Config.throughput;
        ])
      rates
  in
  let zipf2 = Harness.Workload.Zipfian_groups { kmax = 2; theta = 1.0 } in
  let differentials =
    [
      run_differential (module Amcast.A1) ~scenario:`Crash ~seed
        ~dest:zipf2 ();
      run_differential (module Amcast.A1) ~scenario:`Nemesis ~seed:(seed + 1)
        ~dest:zipf2 ();
      run_differential (module Amcast.A2) ~scenario:`Crash ~seed
        ~dest:Harness.Workload.To_all_groups ();
      run_differential (module Amcast.A2) ~scenario:`Nemesis ~seed:(seed + 1)
        ~dest:Harness.Workload.To_all_groups ();
    ]
  in
  let top_rate = List.fold_left max 0 rates in
  let top_cell mode =
    List.find
      (fun c ->
        c.protocol = "a1" && c.mode = mode && c.offered_rate = top_rate)
      cells
  in
  let saturation_ratio =
    let b = top_cell "batched" and u = top_cell "unbatched" in
    float_of_int b.delivered /. float_of_int (max 1 u.delivered)
  in
  let divergent = List.filter d_diverges differentials in
  Printf.printf
    "  %d cells; a1 saturation ratio %.2fx at %d casts/s; %d divergent \
     differential(s)\n%!"
    (List.length cells) saturation_ratio top_rate (List.length divergent);
  let open Harness.Bench_json in
  write ~schema:"amcast-bench-throughput/v3" ~out:!out
    ~gates:
      [
        ("no_divergent_differentials", divergent = []);
        ("a1_saturation_2x", not (saturation_ratio < 2.0));
      ]
    [
      ("seed", Int seed);
      ("smoke", Bool smoke);
      ("tx_cost_us", Int (Sim_time.to_us tx_cost));
      ("window_ms", float 0 (Sim_time.to_ms_float window));
      ("cells", List (List.map json_of_cell cells));
      ("differentials", List (List.map json_of_differential differentials));
      ("divergent_differentials", Int (List.length divergent));
      ("a1_saturation_ratio", float 2 saturation_ratio);
    ]
