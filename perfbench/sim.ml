(* The three simulator workloads: scale_a1, audit_a1 and campaign_mix.

   Every iteration replays the same seeded input, so the iterations of a
   run differ only in how long they take; the run reports medians over
   them. Untraced iterations use the plain protocol module, traced ones
   [Timed.Make] of it. *)

open Harness
open Report

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type shape = {
  name : string;
  groups : int;
  per_group : int;
  casts : int;
  gap_ms : int;
  config : Amcast.Protocol.Config.t;
  record_trace : bool;
  expect_genuine : bool;
  causal : bool;
}

let scale_a1 casts =
  {
    name = "scale_a1";
    groups = 100;
    per_group = 10;
    casts;
    gap_ms = 5;
    config = Amcast.Protocol.Config.throughput;
    record_trace = false;
    expect_genuine = false;
    causal = false;
  }

let audit_a1 casts =
  {
    name = "audit_a1";
    groups = 3;
    per_group = 3;
    casts;
    gap_ms = 10;
    config = Amcast.Protocol.Config.default;
    record_trace = true;
    expect_genuine = true;
    causal = true;
  }

(* One iteration's measurements. *)
type iter = {
  setup_s : float; (* generate + deploy + schedule *)
  measured_s : float; (* simulate + snapshot + index + checks *)
  total_s : float; (* outer wall of the whole iteration *)
  phases : (string * float) list;
  cpu_s : float;
  deliveries : int;
  casts_n : int;
  events : int;
  inter : int;
  intra : int;
  lat_p50 : float; (* virtual ms, cast to last delivery *)
  lat_p99 : float;
  violations : string list;
  causal_flags : int;
  trace_entries : int;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  pending_mean : float;
  casts_per_batch : float;
  layers : Timed.totals option;
}

let stat label stats =
  List.fold_left
    (fun acc l -> acc + Option.value ~default:0 (List.assoc_opt label l))
    0 stats

let casts_per_batch stats =
  let batches = stat "batches_formed" stats in
  if batches = 0 then 0.
  else float (stat "batched_casts" stats) /. float batches

(* Self time of each wrapped layer, named like the per-layer metrics. *)
let layer_phases (t : Timed.totals) =
  Array.to_list (Array.mapi (fun i n -> (n, t.Timed.t_self_s.(i))) Timed.layer_names)

let run_shape (module P : Amcast.Protocol.S) ~traced shape ~seed =
  let module R = Runner.Make (P) in
  let covered () = if traced then Timed.covered_now () else 0. in
  let t_start = now () in
  let topo =
    Net.Topology.symmetric ~groups:shape.groups ~per_group:shape.per_group
  in
  let workload, gen_s =
    timed "harness.generate" (fun () ->
        Workload.generate ~rng:(Des.Rng.create seed) ~topology:topo
          ~n:shape.casts ~dest:(Workload.Random_groups 3)
          ~arrival:(`Poisson (Des.Sim_time.of_ms shape.gap_ms))
          ())
  in
  let cov0 = covered () in
  let dep, deploy_s =
    timed "harness.deploy" (fun () ->
        R.deploy ~seed ~latency:Net.Latency.wan_default ~config:shape.config
          ~record_trace:shape.record_trace topo)
  in
  let cov1 = covered () in
  let (), schedule_s =
    timed "harness.schedule" (fun () -> ignore (R.schedule dep workload))
  in
  let g0 = Gc.quick_stat () and c0 = cpu () in
  let sched = Runtime.Engine.scheduler (R.engine dep) in
  let pending_sum = ref 0 and samples = ref 0 in
  let cov2 = covered () in
  let (), run_s =
    timed "des.run" (fun () ->
        if traced then
          while Des.Scheduler.step sched do
            if Des.Scheduler.executed sched land 63 = 0 then begin
              pending_sum := !pending_sum + Des.Scheduler.pending sched;
              incr samples
            end
          done
        else Runtime.Engine.run (R.engine dep))
  in
  let cov3 = covered () in
  let r, snapshot_s = timed "harness.snapshot" (fun () -> R.run_deployment dep) in
  let _, index_s = timed "harness.index" (fun () -> Run_result.index r) in
  let core, core_s =
    timed "check.core" (fun () ->
        Checker.uniform_integrity r @ Checker.validity r
        @ Checker.uniform_agreement r
        @ Checker.uniform_prefix_order r)
  in
  let genuine, genuine_s =
    if shape.expect_genuine then
      timed "check.genuine" (fun () -> Checker.genuineness r)
    else ([], 0.)
  in
  let quiet, quiescence_s =
    timed "check.quiescence" (fun () -> Checker.quiescence r)
  in
  let causal, causal_s =
    if shape.causal then
      timed "check.causal" (fun () -> Checker.causal_delivery_order r)
    else ([], 0.)
  in
  let t_end = now () in
  let c1 = cpu () and g1 = Gc.quick_stat () in
  let lats = Metrics.delivery_latencies_ms r in
  let stats = List.map (fun p -> P.stats (R.node dep p)) (Net.Topology.all_pids topo) in
  let layers = if traced then Some (Timed.drain ()) else None in
  (* Self times that must add up to [total_s]; only traced iterations
     can split the engine run and deploy from the wrapped layers. *)
  let phases =
    match layers with
    | None -> []
    | Some t ->
      (("des.dispatch", run_s -. (cov3 -. cov2))
       :: ("harness.deploy", deploy_s -. (cov1 -. cov0))
       :: layer_phases t)
      @ [
          ("harness.generate", gen_s);
          ("harness.schedule", schedule_s);
          ("harness.snapshot", snapshot_s);
          ("harness.index", index_s);
          ("check.core", core_s);
          ("check.genuine", genuine_s);
          ("check.quiescence", quiescence_s);
          ("check.causal", causal_s);
        ]
  in
  let measured_s =
    run_s +. snapshot_s +. index_s +. core_s +. genuine_s +. quiescence_s
    +. causal_s
  in
  let violations =
    core @ genuine @ quiet
    @ if r.Run_result.drained then [] else [ "run did not drain" ]
  in
  {
    setup_s = gen_s +. deploy_s +. schedule_s;
    measured_s;
    total_s = t_end -. t_start;
    phases;
    cpu_s = c1 -. c0;
    deliveries = List.length r.Run_result.deliveries;
    casts_n = List.length r.Run_result.casts;
    events = r.Run_result.events_executed;
    inter = r.Run_result.inter_group_msgs;
    intra = r.Run_result.intra_group_msgs;
    lat_p50 = percentile 50. lats;
    lat_p99 = percentile 99. lats;
    violations;
    causal_flags = List.length causal;
    trace_entries = Runtime.Trace.length r.Run_result.trace;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    pending_mean =
      (if !samples = 0 then 0. else float !pending_sum /. float !samples);
    casts_per_batch = casts_per_batch stats;
    layers;
  }

(* ---------- campaign_mix ---------- *)

type target = {
  tname : string;
  proto : (module Amcast.Protocol.S);
  broadcast_only : bool;
  with_crashes : bool;
  expect_genuine : bool;
  config : Amcast.Protocol.Config.t;
  overlay : Net.Overlay.kind option;
}

(* amcast_soak's flags per protocol: crash injection only for the
   fault-tolerant ones, genuineness wherever the protocol promises it,
   quiescence for all. *)
let targets =
  let base = Amcast.Protocol.Config.default in
  let t tname proto ~broadcast_only ~with_crashes ~expect_genuine =
    { tname; proto; broadcast_only; with_crashes; expect_genuine;
      config = base; overlay = None }
  in
  [
    t "a2" (module Amcast.A2) ~broadcast_only:true ~with_crashes:true
      ~expect_genuine:false;
    t "whitebox" (module Amcast.Whitebox) ~broadcast_only:false
      ~with_crashes:true ~expect_genuine:true;
    t "skeen" (module Amcast.Skeen) ~broadcast_only:false ~with_crashes:false
      ~expect_genuine:true;
    { (t "generic" (module Amcast.Generic) ~broadcast_only:false
         ~with_crashes:false ~expect_genuine:true)
      with config = { base with conflict = Amcast.Conflict.payload_key } };
    { (t "flexcast" (module Amcast.Flexcast) ~broadcast_only:false
         ~with_crashes:false ~expect_genuine:true)
      with overlay = Some Net.Overlay.Hub };
  ]

let mix_conflict = Workload.conflict_spec 0.3

type mix_iter = {
  m_setup_s : float; (* expanding the five campaigns' scenario lists *)
  m_measured_s : float;
  m_cpu_s : float;
  m_runs : int;
  m_failed : int;
  m_delivered : int;
  m_steps : int;
  m_failures : string list;
  m_minor_words : float;
  m_minor_gcs : int;
  m_major_gcs : int;
  m_per_target : (string * float) list; (* wall per protocol *)
  m_layers : Timed.totals option;
}

let run_mix ?domains ~traced ~seed ~runs () =
  let t_start = now () in
  let _, setup_s =
    timed "campaign.scenarios" (fun () ->
        List.iter
          (fun t ->
            ignore
              (Campaign.scenarios ~broadcast_only:t.broadcast_only
                 ~with_crashes:t.with_crashes ~with_nemesis:true ~seed ~runs ()))
          targets)
  in
  let g0 = Gc.quick_stat () and c0 = cpu () in
  let per_target =
    List.map
      (fun t ->
        let (module P : Amcast.Protocol.S) = t.proto in
        let proto =
          if traced then (module Timed.Make (P) : Amcast.Protocol.S)
          else t.proto
        in
        let s, wall =
          timed ("campaign." ^ t.tname) (fun () ->
              Campaign.run_sharded proto ?domains ~config:t.config ~conflict:mix_conflict
                ?overlay_kind:t.overlay ~expect_genuine:t.expect_genuine
                ~check_quiescence:true ~broadcast_only:t.broadcast_only
                ~with_crashes:t.with_crashes ~with_nemesis:true ~seed ~runs ())
        in
        (t.tname, s, wall))
      targets
  in
  let c1 = cpu () and g1 = Gc.quick_stat () in
  let sum f = List.fold_left (fun acc (_, s, _) -> acc + f s) 0 per_target in
  {
    m_setup_s = setup_s;
    m_measured_s = now () -. t_start -. setup_s;
    m_cpu_s = c1 -. c0;
    m_runs = sum (fun s -> s.Campaign.runs);
    m_failed = sum (fun s -> List.length s.Campaign.failures);
    m_delivered = sum (fun s -> s.Campaign.delivered_total);
    m_steps = sum (fun s -> s.Campaign.total_steps);
    m_failures =
      List.concat_map
        (fun (n, s, _) ->
          List.concat_map
            (fun o ->
              List.map
                (fun v -> Printf.sprintf "%s seed=%d: %s" n o.Campaign.scenario.seed v)
                o.Campaign.violations)
            s.Campaign.failures)
        per_target;
    m_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    m_minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    m_major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    m_per_target = List.map (fun (n, _, w) -> (n, w)) per_target;
    m_layers = (if traced then Some (Timed.drain ()) else None);
  }
