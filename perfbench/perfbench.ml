(* perfbench — one benchmark over four workloads.

   perfbench --workload W --seed N --seconds S --trace 0|1

   W is scale_a1, audit_a1, campaign_mix or kv_open. With --trace 0 the
   last stdout line carries the end-to-end metrics; with --trace 1 the run
   alternates plain and Timed iterations of the same input and the last
   line carries the per-layer metrics. Every run checks its outputs and
   exits 1 on any wrong one. See README.md. *)

open Report

let usage () =
  prerr_endline
    "usage: perfbench --workload scale_a1|audit_a1|campaign_mix|kv_open \
     --seed N --seconds S --trace 0|1";
  exit 2

let word_mb = float (Sys.word_size / 8) /. 1048576.
let peak_heap_mb () = float (Gc.quick_stat ()).Gc.top_heap_words *. word_mb
let pct part whole = if whole > 0. then 100. *. part /. whole else 0.
let per a b = if b > 0. then a /. b else 0.

(* The per-layer metric names, in output order; a workload that does not
   load a layer reports 0 for it. *)
let share_names =
  [ "des.dispatch"; "harness.generate"; "harness.deploy"; "harness.create";
    "harness.schedule"; "harness.snapshot"; "harness.index";
    "rmcast.handler"; "consensus.handler"; "order.handler"; "amcast.cast";
    "runtime.deliver"; "runtime.timer"; "net.send"; "check.core";
    "check.genuine"; "check.quiescence"; "check.causal" ]

let count_names =
  [ ("des.events", "count"); ("des.pending_mean", "count");
    ("net.sends", "count"); ("net.fanout_mean", "count");
    ("net.intra_msgs_per_cast", "count"); ("net.inter_msgs_per_cast", "count");
    ("rmcast.msgs", "count"); ("consensus.msgs", "count");
    ("consensus.msgs_per_delivery", "count"); ("order.msgs", "count");
    ("batch.casts_per_batch", "count"); ("runtime.timers_set", "count");
    ("runtime.timers_cancelled", "count"); ("check.causal_flags", "count");
    ("trace.entries", "count"); ("pool.domains", "count");
    ("pool.imbalance", "ratio"); ("pool.speedup", "ratio");
    ("gc.minor_words_per_delivery", "count");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("order.us_per_delivery", "us"); ("runtime.deliver_us_per_delivery", "us");
    ("net.send_us_per_delivery", "us"); ("kv.msgs_per_op", "count");
    ("kv.inflight_peak", "count"); ("gc.peak_heap_mb", "MB");
    ("trace.unattributed_pct", "%");
    ("trace.overhead_pct", "%") ]

(* Fill every per-layer name, defaulting to 0. *)
let per_layer_metrics shares counts =
  List.map
    (fun n ->
      m (n ^ "_pct") "%" (Option.value ~default:0. (List.assoc_opt n shares)))
    share_names
  @ List.map
      (fun (n, unit) ->
        m n unit (Option.value ~default:0. (List.assoc_opt n counts)))
      count_names

(* Counts drawn from a Timed fold, normalised per iteration. *)
let layer_counts (t : Timed.totals) ~deliveries =
  let calls i = float t.Timed.t_calls.(i) in
  let self i = t.Timed.t_self_s.(i) in
  [
    ("net.sends", float t.Timed.t_sends);
    ("net.fanout_mean", per (float t.Timed.t_sends) (float t.Timed.t_send_events));
    ("rmcast.msgs", calls Timed.l_rmcast);
    ("consensus.msgs", calls Timed.l_consensus);
    ("consensus.msgs_per_delivery", per (calls Timed.l_consensus) deliveries);
    ("order.msgs", calls Timed.l_order);
    ("runtime.timers_set", float t.Timed.t_timers_set);
    ("runtime.timers_cancelled", float t.Timed.t_timers_cancelled);
    ("order.us_per_delivery", 1e6 *. per (self Timed.l_order) deliveries);
    ("runtime.deliver_us_per_delivery", 1e6 *. per (self Timed.l_deliver) deliveries);
    ("net.send_us_per_delivery", 1e6 *. per (self Timed.l_send) deliveries);
  ]

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Iterate [f] for about [seconds]: stop before an iteration that would
   end past the deadline if it took as long as the last one, but run at
   least [min_iters]. *)
let until_elapsed ~seconds ~min_iters f =
  let t0 = now () in
  let rec go k last acc =
    let elapsed = now () -. t0 in
    if k >= min_iters && elapsed +. last > seconds then List.rev acc
    else
      let t = now () in
      let v = f k in
      go (k + 1) (now () -. t) (v :: acc)
  in
  go 0 0. []

(* ---------- scale_a1 / audit_a1 ---------- *)

let run_des ~shape ~warm ~seed ~seconds ~trace =
  let plain = (module Amcast.A1 : Amcast.Protocol.S) in
  let timed_a1 = (module Timed.Make (Amcast.A1) : Amcast.Protocol.S) in
  ignore (Sim.run_shape plain ~traced:false warm ~seed);
  let runs =
    until_elapsed ~seconds ~min_iters:(if trace then 2 else 1) (fun k ->
        let traced = trace && k mod 2 = 1 in
        let i, kernel =
          Host.calibrated (fun () ->
              fst
                (timed "iteration" (fun () ->
                     Sim.run_shape (if traced then timed_a1 else plain) ~traced shape ~seed)))
        in
        (traced, i, kernel))
  in
  let iters = List.map (fun (t, i, _) -> (t, i)) runs in
  let kernels = List.filter_map (fun (t, _, k) -> if t then None else Some k) runs in
  let all = List.map snd iters in
  let first = List.hd all in
  let failed =
    List.length (List.filter (fun (i : Sim.iter) -> i.violations <> []) all)
  in
  List.iter
    (fun (i : Sim.iter) -> List.iter (fun v -> prerr_endline ("violation: " ^ v)) i.violations)
    all;
  (* Same input every iteration, traced or not: the simulation is
     deterministic, so every observable count must repeat exactly. *)
  List.iter
    (fun (traced, (i : Sim.iter)) ->
      let same what a b =
        if a <> b then
          fail "%s differs between iterations (%s %s vs %s)" what
            (if traced then "traced" else "untraced") a b
      in
      same "virt_latency_p50_ms" (string_of_float i.lat_p50) (string_of_float first.lat_p50);
      same "virt_latency_p99_ms" (string_of_float i.lat_p99) (string_of_float first.lat_p99);
      same "inter_msgs_per_cast" (string_of_int i.inter) (string_of_int first.inter);
      same "des.events" (string_of_int i.events) (string_of_int first.events);
      same "check.causal_flags" (string_of_int i.causal_flags)
        (string_of_int first.causal_flags))
    iters;
  let plain_iters = List.filter_map (fun (t, i) -> if t then None else Some i) iters in
  let traced_iters = List.filter_map (fun (t, i) -> if t then Some i else None) iters in
  let med f l = median (List.map f l) in
  let deliveries = float first.deliveries and casts = float first.casts_n in
  let walls = List.map (fun (i : Sim.iter) -> i.measured_s) plain_iters in
  Printf.printf "%s: %d iterations, measured phase %s, reference kernel %s\n"
    shape.Sim.name (List.length all) (summary_string ~unit:"s" walls)
    (summary_string ~unit:"s" kernels);
  Printf.printf "unscaled: setup_s %.6f s, deliveries_per_s %.3f 1/s, \
                 cpu_us_per_delivery %.3f us\n"
    (med (fun (i : Sim.iter) -> i.setup_s) plain_iters)
    (med (fun (i : Sim.iter) -> deliveries /. i.measured_s) plain_iters)
    (med (fun (i : Sim.iter) -> 1e6 *. i.cpu_s /. deliveries) plain_iters);
  Printf.printf "virt_latency_p50_ms %.3f ms, virt_latency_p99_ms %.3f ms, \
                 inter_msgs_per_cast %.4f count, peak_heap_mb %.3f MB, \
                 failed_frac %.4f ratio (base %d runs)\n"
    first.lat_p50 first.lat_p99 (float first.inter /. casts) (peak_heap_mb ())
    (float failed /. float (List.length all)) (List.length all);
  let metrics =
    if not trace then
      let scaled f =
        median
          (List.filter_map
             (fun (t, i, kernel) -> if t then None else Some (f ~kernel i))
             runs)
      in
      [
        m "setup_s" "s"
          (scaled (fun ~kernel (i : Sim.iter) -> Host.scale_time ~kernel i.setup_s));
        m "deliveries_per_s" "1/s"
          (scaled (fun ~kernel (i : Sim.iter) ->
               Host.scale_rate ~kernel (deliveries /. i.measured_s)));
      ]
    else begin
      let t = List.hd traced_iters in
      let shares =
        List.map
          (fun (name, _) ->
            (name, med (fun (i : Sim.iter) ->
                 pct (Option.value ~default:0. (List.assoc_opt name i.phases)) i.total_s)
                 traced_iters))
          t.phases
      in
      let unattributed =
        med (fun (i : Sim.iter) ->
            pct (i.total_s -. List.fold_left (fun s (_, x) -> s +. x) 0. i.phases) i.total_s)
          traced_iters
      in
      let overhead =
        pct
          (med (fun (i : Sim.iter) -> i.total_s) traced_iters
           -. med (fun (i : Sim.iter) -> i.total_s) plain_iters)
          (med (fun (i : Sim.iter) -> i.total_s) plain_iters)
      in
      let counts =
        layer_counts (Option.get t.layers) ~deliveries
        @ [
            ("des.events", float t.events);
            ("des.pending_mean", t.pending_mean);
            ("net.intra_msgs_per_cast", float t.intra /. casts);
            ("net.inter_msgs_per_cast", float t.inter /. casts);
            ("batch.casts_per_batch", t.casts_per_batch);
            ("check.causal_flags", float t.causal_flags);
            ("trace.entries", float t.trace_entries);
            ("pool.domains", 1.);
            ("pool.imbalance", 1.);
            ("gc.peak_heap_mb", peak_heap_mb ());
            ("gc.minor_words_per_delivery",
             med (fun (i : Sim.iter) -> i.minor_words /. deliveries) plain_iters);
            ("gc.minor_collections",
             med (fun (i : Sim.iter) -> float i.minor_gcs) plain_iters);
            ("gc.major_collections",
             med (fun (i : Sim.iter) -> float i.major_gcs) plain_iters);
            ("trace.unattributed_pct", unattributed);
            ("trace.overhead_pct", overhead);
          ]
      in
      per_layer_metrics shares counts
    end
  in
  { attempted = List.length all; failed; metrics }

(* ---------- campaign_mix ---------- *)

let run_campaign ~seed ~runs ~seconds ~trace =
  ignore (Sim.run_mix ~traced:false ~seed ~runs:(max 1 (runs / 8)) ());
  let runs_k =
    until_elapsed ~seconds ~min_iters:(if trace then 2 else 1) (fun k ->
        let traced = trace && k mod 2 = 1 in
        let i, kernel =
          Host.calibrated (fun () ->
              fst (timed "iteration" (fun () -> Sim.run_mix ~traced ~seed ~runs ())))
        in
        (traced, i, kernel))
  in
  let iters = List.map (fun (t, i, _) -> (t, i)) runs_k in
  let kernels = List.filter_map (fun (t, _, k) -> if t then None else Some k) runs_k in
  let all = List.map snd iters in
  let first = List.hd all in
  List.iter
    (fun (i : Sim.mix_iter) ->
      List.iter (fun v -> prerr_endline ("violation: " ^ v)) i.m_failures;
      if i.m_delivered <> first.m_delivered || i.m_steps <> first.m_steps then
        fail "campaign_mix: iterations of one campaign disagree (%d/%d vs %d/%d)"
          i.m_delivered i.m_steps first.m_delivered first.m_steps)
    all;
  let plain_iters = List.filter_map (fun (t, i) -> if t then None else Some i) iters in
  let traced_iters = List.filter_map (fun (t, i) -> if t then Some i else None) iters in
  let med f l = median (List.map f l) in
  let deliveries = float first.m_delivered in
  let attempted = List.fold_left (fun s (i : Sim.mix_iter) -> s + i.m_runs) 0 all in
  let failed = List.fold_left (fun s (i : Sim.mix_iter) -> s + i.m_failed) 0 all in
  Printf.printf "campaign_mix: %d iterations of %d scenarios on %d domains, \
                 measured phase %s, reference kernel %s\n"
    (List.length all) first.m_runs (Harness.Pool.recommended_domains ())
    (summary_string ~unit:"s" (List.map (fun (i : Sim.mix_iter) -> i.m_measured_s) plain_iters))
    (summary_string ~unit:"s" kernels);
  Printf.printf "unscaled: setup_s %.6f s, deliveries_per_s %.3f 1/s, \
                 cpu_us_per_delivery %.3f us\n"
    (med (fun (i : Sim.mix_iter) -> i.m_setup_s) plain_iters)
    (med (fun (i : Sim.mix_iter) -> deliveries /. i.m_measured_s) plain_iters)
    (med (fun (i : Sim.mix_iter) -> 1e6 *. i.m_cpu_s /. deliveries) plain_iters);
  List.iter
    (fun (n, w) -> Printf.printf "  %-9s %.3f s\n" n w)
    first.m_per_target;
  Printf.printf "peak_heap_mb %.3f MB, failed_frac %.4f ratio (base %d scenarios)\n"
    (peak_heap_mb ()) (float failed /. float attempted) attempted;
  let metrics =
    if not trace then
      let scaled f =
        median
          (List.filter_map
             (fun (t, i, kernel) -> if t then None else Some (f ~kernel i))
             runs_k)
      in
      [
        m "setup_s" "s"
          (scaled (fun ~kernel (i : Sim.mix_iter) -> Host.scale_time ~kernel i.m_setup_s));
        m "deliveries_per_s" "1/s"
          (scaled (fun ~kernel (i : Sim.mix_iter) ->
               Host.scale_rate ~kernel (deliveries /. i.m_measured_s)));
      ]
    else begin
      let t = List.hd traced_iters in
      let layers = Option.get t.m_layers in
      let n_domains = Harness.Pool.recommended_domains () in
      let domains = float n_domains in
      let busy = t.m_measured_s *. domains in
      (* Pool.tabulate runs on the calling domain plus [n - 1] fresh ones
         per call; domain ids only grow, so fold them back onto slots. *)
      let slot d = if d = 0 || n_domains < 2 then 0 else ((d - 1) mod (n_domains - 1)) + 1 in
      let by_slot = Hashtbl.create 4 in
      List.iter
        (fun (d, s) ->
          let k = slot d in
          Hashtbl.replace by_slot k (s +. Option.value ~default:0. (Hashtbl.find_opt by_slot k)))
        layers.Timed.per_domain_s;
      (* One sequential iteration for the base of the sharding speed-up. *)
      let one = Sim.run_mix ~domains:1 ~traced:false ~seed ~runs () in
      let speedup =
        per one.m_measured_s (med (fun (i : Sim.mix_iter) -> i.m_measured_s) plain_iters)
      in
      Printf.printf "campaign_mix: 1 domain %.3f s vs %d domains %.3f s (speed-up %.2fx)\n"
        one.m_measured_s n_domains
        (med (fun (i : Sim.mix_iter) -> i.m_measured_s) plain_iters) speedup;
      let shares =
        Array.to_list
          (Array.mapi (fun i n -> (n, pct layers.Timed.t_self_s.(i) busy)) Timed.layer_names)
      in
      let doms = Hashtbl.fold (fun _ s l -> s :: l) by_slot [] in
      let imbalance =
        match doms with
        | [] -> 1.
        | d :: _ ->
          let hi = List.fold_left max d doms and lo = List.fold_left min d doms in
          per hi lo
      in
      let counts =
        layer_counts layers ~deliveries
        @ [
            ("des.events", float t.m_steps);
            ("pool.domains", float (List.length doms));
            ("pool.imbalance", imbalance);
            ("pool.speedup", speedup);
            ("gc.peak_heap_mb", peak_heap_mb ());
            ("gc.minor_words_per_delivery",
             med (fun (i : Sim.mix_iter) -> i.m_minor_words /. deliveries) plain_iters);
            ("gc.minor_collections",
             med (fun (i : Sim.mix_iter) -> float i.m_minor_gcs) plain_iters);
            ("gc.major_collections",
             med (fun (i : Sim.mix_iter) -> float i.m_major_gcs) plain_iters);
            ("trace.unattributed_pct",
             100. -. List.fold_left (fun s (_, x) -> s +. x) 0. shares);
            ("trace.overhead_pct",
             pct
               (med (fun (i : Sim.mix_iter) -> i.m_measured_s) traced_iters
                -. med (fun (i : Sim.mix_iter) -> i.m_measured_s) plain_iters)
               (med (fun (i : Sim.mix_iter) -> i.m_measured_s) plain_iters));
          ]
      in
      per_layer_metrics shares counts
    end
  in
  { attempted; failed; metrics }

(* ---------- kv_open ---------- *)

let run_kv ~seed ~seconds ~trace =
  let (), kernel = Host.calibrated ignore in
  let r = Kv_open.run ~seed ~seconds ~traced:trace in
  let stat k = Option.value ~default:0. (List.assoc_opt k r.Kv_open.child_stats) in
  let attempted = r.load.sent_total in
  List.iter (fun b -> prerr_endline ("kv: " ^ b)) r.load.bad;
  Printf.printf "kv_open: generator %s\n"
    (if r.pinned then "and cluster pinned to two CPUs" else "unpinned");
  List.iter
    (fun p ->
      Printf.printf "  rung %6.0f ops/s: sent %5d replies %5d  %s%s\n" p.Kv_open.rate
        p.sent p.replies (summary_string ~unit:"ms" p.latencies)
        (if Kv_open.backlog_grows p then "  BACKLOG GROWS" else ""))
    r.rungs;
  let rung rate = List.find (fun p -> p.Kv_open.rate = rate) r.rungs in
  let lo = rung Kv_open.low_rung and hi = rung Kv_open.high_rung in
  Printf.printf "kv_p50_ms.low %.4f ms, kv_p99_ms.low %.4f ms, kv_p50_ms.high %.4f ms, \
                 kv_p99_ms.high %.4f ms (rungs %.0f and %.0f ops/s)\n"
    (percentile 50. lo.latencies) (percentile 99. lo.latencies)
    (percentile 50. hi.latencies) (percentile 99. hi.latencies)
    Kv_open.low_rung Kv_open.high_rung;
  Printf.printf "kv_max_rate_ops_s %.0f ops/s (p99 limit %.0f ms), kv_outage_ms %.3f ms, \
                 kv.gen_late_p99_ms %.4f ms, kv.learner_catchup_s %s, \
                 failed_frac %.5f ratio (base %d requests)\n"
    r.max_rate Kv_open.latency_limit_ms r.load.outage_ms r.load.gen_late_p99_ms
    (match r.load.catchup with Some (_, s) -> Printf.sprintf "%.4f s" s | None -> "none")
    (float (List.length r.load.bad) /. float (max 1 attempted)) attempted;
  if stat "consistency_violations" > 0. then fail "kv_open: replica logs inconsistent";
  if stat "checker_violations" > 0. then fail "kv_open: checker violations";
  (match r.load.catchup with
   | Some (true, _) -> ()
   | _ -> fail "kv_open: restarted learner never synced");
  let marks = Array.of_list r.load.marks in
  if Array.length marks <> 3 then fail "kv_open: %d child marks" (Array.length marks);
  let d f a b = f marks.(b) -. f marks.(a) in
  Printf.printf "peak_heap_mb %.3f MB (cluster, end of ladder), \
                 cpu_us_per_delivery %.3f us (cluster, to the end of the %.0f ops/s rung), \
                 reference kernel %.4f s\n"
    (marks.(2).Kv_open.heap_words *. word_mb)
    (1e6 *. per (d (fun k -> k.Kv_open.cpu) 0 1) (d (fun k -> k.Kv_open.delivered) 0 1))
    Kv_open.high_rung kernel;
  (* efficiency below saturation: ladder start to the end of the high rung *)
  let deliveries = d (fun k -> k.Kv_open.delivered) 0 1 in
  let ops = deliveries /. float Kv_open.per_group in
  let metrics =
    if not trace then
      [
        m "setup_s" "s" (Host.scale_time ~kernel (median r.setup_samples));
        m "deliveries_per_s" "1/s"
          (Host.scale_rate ~kernel
             (per (d (fun k -> k.Kv_open.delivered) 0 2) (d (fun k -> k.Kv_open.wall) 0 2)));
      ]
    else begin
      (* Spans are wall time on each replica's loop thread; the threads
         share one domain lock, so the shares are of the child's CPU time
         over its whole life and may include lock waits. *)
      let cpu = stat "cpu_total_s" and total = stat "delivered_total" in
      let shares =
        Array.to_list
          (Array.map (fun n -> (n, pct (stat (n ^ ".self_s")) cpu)) Timed.layer_names)
      in
      let layers =
        {
          Timed.t_self_s = Array.map (fun n -> stat (n ^ ".self_s")) Timed.layer_names;
          t_calls =
            Array.map (fun n -> int_of_float (stat (n ^ ".calls"))) Timed.layer_names;
          t_covered_s = stat "covered_s";
          t_sends = int_of_float (stat "sends");
          t_send_events = int_of_float (stat "send_events");
          t_timers_set = int_of_float (stat "timers_set");
          t_timers_cancelled = int_of_float (stat "timers_cancelled");
          per_domain_s = [];
        }
      in
      let counts =
        layer_counts layers ~deliveries:total
        @ [
            ("des.events", d (fun k -> k.Kv_open.events) 0 1);
            ("net.intra_msgs_per_cast", per (d (fun k -> k.Kv_open.intra) 0 1) ops);
            ("net.inter_msgs_per_cast", per (d (fun k -> k.Kv_open.inter) 0 1) ops);
            ("kv.msgs_per_op",
             per (d (fun k -> k.Kv_open.intra +. k.Kv_open.inter) 0 1) ops);
            ("kv.inflight_peak", float r.load.inflight_peak);
            ("gc.peak_heap_mb", marks.(2).Kv_open.heap_words *. word_mb);
            ("gc.minor_words_per_delivery", per (stat "minor_words") total);
            ("gc.minor_collections", stat "minor_collections");
            ("gc.major_collections", stat "major_collections");
            ("pool.domains", 1.);
            ("pool.imbalance", 1.);
            ("trace.unattributed_pct",
             100. -. List.fold_left (fun s (_, x) -> s +. x) 0. shares);
          ]
      in
      per_layer_metrics shares counts
    end
  in
  { attempted; failed = List.length r.load.bad; metrics }

(* ---------- entry point ---------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with Some n when n >= 0 -> seed := n | _ -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some x when x > 0. -> seconds := x | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := int_of_string t; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0. || !trace < 0 then usage ();
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  recording := trace;
  let o =
    match !workload with
    | "scale_a1" ->
      run_des ~shape:(Sim.scale_a1 2000) ~warm:(Sim.scale_a1 200) ~seed ~seconds ~trace
    | "audit_a1" ->
      run_des ~shape:(Sim.audit_a1 500) ~warm:(Sim.audit_a1 100) ~seed ~seconds ~trace
    | "campaign_mix" -> run_campaign ~seed ~runs:1000 ~seconds ~trace
    | "kv_open" -> run_kv ~seed ~seconds ~trace
    | _ -> usage ()
  in
  if trace then dump_spans ();
  if o.failed > 0 then fail "%s: %d of %d attempts failed" !workload o.failed o.attempted;
  print_result ~correct:true ~attempted:o.attempted ~failed:o.failed o.metrics
