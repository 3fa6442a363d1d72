(* throughput_bench — saturation curves for the high-throughput lane.

   Drives A1 (Zipfian multicast with hot origins) and A2 (broadcast) with
   open-loop bursty arrivals over a grid of offered rates, on a network
   with a per-sender egress serialization cost (Network.set_tx_cost) so
   that load actually queues at the NIC instead of vanishing into the
   pure-latency model. Each cell runs twice — unbatched
   (Protocol.Config.default) and batched (Protocol.Config.throughput:
   cast batching + pipelined consensus + ack coalescing) — and reports
   delivered msgs/sec of sim time plus p50/p99 cast-to-delivery latency.

   Two properties are checked; any failure exits non-zero:

   - floor: at the top offered rate the batched A1 lane must deliver at
     least 2x the messages of the unbatched lane within the same sim-time
     window (the saturation win the lane exists for);
   - safety: on faulty runs (deterministic crash schedules and generated
     nemesis plans) the batched lane and Config.reference must produce
     the same checker verdicts — batching, pipelining and ack coalescing
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
  acks_coalesced : int;
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

let run_cell (type a) (module P : Amcast.Protocol.S with type t = a)
    ~protocol ~mode ~config ~seed ~offered_rate ~window ~topo
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
      protocol;
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
      acks_coalesced = stat "acks_coalesced";
      wall_s;
    }
  in
  Printf.printf
    "  %-3s %-9s offered %5d/s  delivered %5d/%d (%7.0f/s)  p50 %s p99 %s  \
     batches %d depth %d\n\
     %!"
    protocol mode offered_rate delivered c.casts c.delivered_rate
    (match c.p50_ms with Some x -> Printf.sprintf "%6.1fms" x | None -> "-")
    (match c.p99_ms with Some x -> Printf.sprintf "%6.1fms" x | None -> "-")
    c.batches_formed c.pipeline_depth_max;
  c

(* ------------------------------------------------------------------ *)
(* Safety differentials: batched lane vs Config.reference under faults.
   Verdicts (checker violation lists) must coincide — delivered counts
   may legitimately differ (a crash mid-batch can lose buffered casts of
   the crashed origin, which validity exempts). *)

type differential = {
  d_protocol : string;
  scenario : string; (* "crash" | "nemesis" *)
  d_seed : int;
  batched_violations : string list;
  reference_violations : string list;
}

let d_diverges d = d.batched_violations <> d.reference_violations

let run_differential (type a) (module P : Amcast.Protocol.S with type t = a)
    ~protocol ~scenario ~seed ~dest () =
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
      d_protocol = protocol;
      scenario = (match scenario with `Crash -> "crash" | `Nemesis -> "nemesis");
      d_seed = seed;
      batched_violations = check Amcast.Protocol.Config.throughput;
      reference_violations = check Amcast.Protocol.Config.reference;
    }
  in
  Printf.printf "  diff %-3s %-7s seed %d  batched %d violation(s), \
                 reference %d%s\n%!"
    d.d_protocol d.scenario d.d_seed
    (List.length d.batched_violations)
    (List.length d.reference_violations)
    (if d_diverges d then "  DIVERGENT" else "");
  if d_diverges d then
    List.iter
      (fun v -> Printf.printf "    batched: %s\n%!" v)
      d.batched_violations;
  d

(* ------------------------------------------------------------------ *)

let json_opt_float = function
  | Some x -> Printf.sprintf "%.3f" x
  | None -> "null"

let json_string_list l =
  "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") l) ^ "]"

let json_of_cell c =
  Printf.sprintf
    "    { \"protocol\": \"%s\", \"mode\": \"%s\", \"offered_rate\": %d, \
     \"casts\": %d,\n\
    \      \"delivered\": %d, \"delivered_rate\": %.1f, \"p50_ms\": %s, \
     \"p99_ms\": %s,\n\
    \      \"batches_formed\": %d, \"batched_casts\": %d, \
     \"casts_per_batch_max\": %d,\n\
    \      \"pipeline_depth_max\": %d, \"acks_coalesced\": %d, \"wall_s\": \
     %.6f }"
    c.protocol c.mode c.offered_rate c.casts c.delivered c.delivered_rate
    (json_opt_float c.p50_ms) (json_opt_float c.p99_ms) c.batches_formed
    c.batched_casts c.casts_per_batch_max c.pipeline_depth_max
    c.acks_coalesced c.wall_s

let json_of_differential d =
  Printf.sprintf
    "    { \"protocol\": \"%s\", \"scenario\": \"%s\", \"seed\": %d,\n\
    \      \"batched_violations\": %s, \"reference_violations\": %s, \
     \"divergent\": %b }"
    d.d_protocol d.scenario d.d_seed
    (json_string_list d.batched_violations)
    (json_string_list d.reference_violations)
    (d_diverges d)

let () =
  let seed = ref 0 in
  let out = ref "BENCH_throughput.json" in
  let smoke = ref false in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | arg :: _ ->
      Printf.eprintf "throughput_bench: unknown argument %S\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
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
        let cell (module P : Amcast.Protocol.S) protocol workload mode config
            =
          let (module P) = (module P : Amcast.Protocol.S) in
          run_cell (module P) ~protocol ~mode ~config ~seed
            ~offered_rate:rate ~window ~topo ~workload ()
        in
        [
          cell (module Amcast.A1) "a1" a1_wl "unbatched"
            Amcast.Protocol.Config.default;
          cell (module Amcast.A1) "a1" a1_wl "batched"
            Amcast.Protocol.Config.throughput;
          cell (module Amcast.A2) "a2" a2_wl "unbatched"
            Amcast.Protocol.Config.default;
          cell (module Amcast.A2) "a2" a2_wl "batched"
            Amcast.Protocol.Config.throughput;
        ])
      rates
  in
  let zipf2 = Harness.Workload.Zipfian_groups { kmax = 2; theta = 1.0 } in
  let differentials =
    [
      run_differential (module Amcast.A1) ~protocol:"a1" ~scenario:`Crash
        ~seed ~dest:zipf2 ();
      run_differential (module Amcast.A1) ~protocol:"a1" ~scenario:`Nemesis
        ~seed:(seed + 1) ~dest:zipf2 ();
      run_differential (module Amcast.A2) ~protocol:"a2" ~scenario:`Crash
        ~seed ~dest:Harness.Workload.To_all_groups ();
      run_differential (module Amcast.A2) ~protocol:"a2" ~scenario:`Nemesis
        ~seed:(seed + 1) ~dest:Harness.Workload.To_all_groups ();
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
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"amcast-bench-throughput/v1\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"generated_unix_time\": %.0f,\n"
       (Unix.gettimeofday ()));
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf
    (Printf.sprintf "  \"tx_cost_us\": %d,\n" (Sim_time.to_us tx_cost));
  Buffer.add_string buf
    (Printf.sprintf "  \"window_ms\": %.0f,\n" (Sim_time.to_ms_float window));
  Buffer.add_string buf "  \"cells\": [\n";
  Buffer.add_string buf (String.concat ",\n" (List.map json_of_cell cells));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"differentials\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map json_of_differential differentials));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"divergent_differentials\": %d,\n"
       (List.length divergent));
  Buffer.add_string buf
    (Printf.sprintf "  \"a1_saturation_ratio\": %.2f\n" saturation_ratio);
  Buffer.add_string buf "}\n";
  let oc = open_out !out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf
    "  wrote %s (%d cells; a1 saturation ratio %.2fx; %d divergent \
     differential(s))\n\
     %!"
    !out (List.length cells) saturation_ratio (List.length divergent);
  if divergent <> [] then begin
    Printf.eprintf
      "throughput_bench: FAIL — %d differential(s) where the batched lane \
       changes checker verdicts vs the reference mode\n"
      (List.length divergent);
    exit 1
  end;
  if saturation_ratio < 2.0 then begin
    Printf.eprintf
      "throughput_bench: FAIL — batched A1 delivered only %.2fx the \
       unbatched lane at %d casts/s (floor: 2x)\n"
      saturation_ratio top_rate;
    exit 1
  end
