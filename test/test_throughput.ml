(* Throughput-lane tests: batcher flush policy, pipelined consensus,
   batched-vs-unbatched verdict differentials, lease-path pipelining
   regressions, and model-checked outcome-set equality.

   The lane's contract: batching and pipelining may change message counts
   and timings, never verdicts — and with every knob at its default
   (batch 1, pipeline 1) the runs are bit-identical to the pre-lane
   protocol. *)

open Util

let msg ~origin ~seq ~dest payload =
  Amcast.Msg.make ~id:(Runtime.Msg_id.make ~origin ~seq) ~dest payload

(* ---------- batcher flush policy (pure, fake timers) ---------- *)

type fake_batcher = {
  b : Amcast.Batcher.t;
  timers : (int, unit -> unit) Hashtbl.t;
  flushed : (Net.Topology.gid list * Amcast.Msg.t list) list ref;
}

let mk_batcher ~max ~delay =
  let timers = Hashtbl.create 4 in
  let next = ref 0 in
  let flushed = ref [] in
  let b =
    Amcast.Batcher.create ~max ~delay
      ~set_timer:(fun ~after:_ f ->
        incr next;
        Hashtbl.replace timers !next f;
        !next)
      ~cancel_timer:(Hashtbl.remove timers)
      ~flush:(fun ~key msgs -> flushed := !flushed @ [ (key, msgs) ])
  in
  { b; timers; flushed }

let fire_timers fb =
  let fs = Hashtbl.fold (fun _ f acc -> f :: acc) fb.timers [] in
  Hashtbl.reset fb.timers;
  List.iter (fun f -> f ()) fs

let ids msgs = List.map (fun (m : Amcast.Msg.t) -> m.id.Runtime.Msg_id.seq) msgs

let test_batcher_bypass () =
  let fb = mk_batcher ~max:1 ~delay:(ms 2) in
  let m0 = msg ~origin:0 ~seq:0 ~dest:[ 0; 1 ] "m0" in
  let m1 = msg ~origin:0 ~seq:1 ~dest:[ 0 ] "m1" in
  Amcast.Batcher.add fb.b m0;
  Amcast.Batcher.add fb.b m1;
  Alcotest.(check int) "two synchronous flushes" 2 (List.length !(fb.flushed));
  Alcotest.(check int) "no timer armed" 0 (Hashtbl.length fb.timers);
  Alcotest.(check int) "singletons" 1
    (List.length (snd (List.hd !(fb.flushed))));
  (* The zero counters are the observable signature of the lane being
     off — the soak summaries key on them. *)
  Alcotest.(check int) "formed stays 0" 0 (Amcast.Batcher.batches_formed fb.b);
  Alcotest.(check int) "packed stays 0" 0 (Amcast.Batcher.casts_packed fb.b)

let test_batcher_size_trigger () =
  let fb = mk_batcher ~max:3 ~delay:(ms 2) in
  List.iter
    (fun seq -> Amcast.Batcher.add fb.b (msg ~origin:0 ~seq ~dest:[ 0; 1 ] "m"))
    [ 0; 1; 2 ];
  (match !(fb.flushed) with
  | [ (key, msgs) ] ->
    Alcotest.(check (list int)) "key" [ 0; 1 ] key;
    Alcotest.(check (list int)) "cast order kept" [ 0; 1; 2 ] (ids msgs)
  | l -> Alcotest.failf "expected one batch, got %d" (List.length l));
  Alcotest.(check int) "timer cancelled after size flush" 0
    (Hashtbl.length fb.timers);
  Alcotest.(check int) "nothing pending" 0 (Amcast.Batcher.pending fb.b);
  Alcotest.(check int) "formed" 1 (Amcast.Batcher.batches_formed fb.b);
  Alcotest.(check int) "max batch" 3 (Amcast.Batcher.max_batch fb.b)

let test_batcher_timeout_trigger () =
  let fb = mk_batcher ~max:8 ~delay:(ms 2) in
  (* Three casts across two destination sets, below the size trigger. *)
  Amcast.Batcher.add fb.b (msg ~origin:0 ~seq:0 ~dest:[ 0 ] "a");
  Amcast.Batcher.add fb.b (msg ~origin:0 ~seq:1 ~dest:[ 0; 1 ] "b");
  Amcast.Batcher.add fb.b (msg ~origin:0 ~seq:2 ~dest:[ 0 ] "c");
  Alcotest.(check int) "one shared timer" 1 (Hashtbl.length fb.timers);
  Alcotest.(check (list int)) "buffered until timeout" []
    (List.map (fun _ -> 0) !(fb.flushed));
  fire_timers fb;
  (match !(fb.flushed) with
  | [ (k1, b1); (k2, b2) ] ->
    (* Oldest bucket first: [0] was opened before [0;1]. *)
    Alcotest.(check (list int)) "first bucket key" [ 0 ] k1;
    Alcotest.(check (list int)) "first bucket casts" [ 0; 2 ] (ids b1);
    Alcotest.(check (list int)) "second bucket key" [ 0; 1 ] k2;
    Alcotest.(check (list int)) "second bucket casts" [ 1 ] (ids b2)
  | l -> Alcotest.failf "expected two batches, got %d" (List.length l));
  Alcotest.(check int) "nothing pending" 0 (Amcast.Batcher.pending fb.b)

let test_batcher_size_flush_leaves_other_buckets () =
  let fb = mk_batcher ~max:2 ~delay:(ms 2) in
  Amcast.Batcher.add fb.b (msg ~origin:0 ~seq:0 ~dest:[ 0 ] "a1");
  Amcast.Batcher.add fb.b (msg ~origin:0 ~seq:1 ~dest:[ 0; 1 ] "b1");
  Amcast.Batcher.add fb.b (msg ~origin:0 ~seq:2 ~dest:[ 0 ] "a2");
  (* Bucket [0] hit the size trigger; bucket [0;1] must keep waiting. *)
  Alcotest.(check int) "one batch flushed" 1 (List.length !(fb.flushed));
  Alcotest.(check int) "other bucket still pending" 1
    (Amcast.Batcher.pending fb.b);
  Alcotest.(check int) "timer still armed for it" 1 (Hashtbl.length fb.timers);
  fire_timers fb;
  Alcotest.(check int) "flushed by timeout" 2 (List.length !(fb.flushed));
  Alcotest.(check int) "nothing pending" 0 (Amcast.Batcher.pending fb.b)

(* ---------- flush policy on a deployment ---------- *)

let batched_config =
  {
    Amcast.Protocol.Config.default with
    Amcast.Protocol.Config.batch_max = 4;
    batch_delay = ms 2;
  }

module RA1 = Harness.Runner.Make (Amcast.A1)

(* A single cast below the size trigger is flushed by the batch timer and
   still delivered everywhere. *)
let test_deploy_timeout_flush () =
  let topo = Net.Topology.symmetric ~groups:2 ~per_group:2 in
  let dep =
    RA1.deploy ~seed:0 ~latency:crisp_latency
      ~config:{ batched_config with batch_max = 8 } topo
  in
  ignore (RA1.cast_at dep ~at:(ms 10) ~origin:0 ~dest:[ 0; 1 ] ());
  let r = RA1.run_deployment dep in
  check_no_violations "timeout flush"
    (Harness.Checker.check_all ~check_quiescence:true r);
  Alcotest.(check int) "delivered" 1 (Harness.Metrics.delivered_count r);
  let stats = Amcast.A1.stats (RA1.node dep 0) in
  Alcotest.(check int) "one batch formed at the origin" 1
    (List.assoc "batches_formed" stats);
  Alcotest.(check int) "a singleton batch" 1
    (List.assoc "casts_per_batch_max" stats)

(* Eight same-instant casts with batch_max = 4: two full batches at the
   origin, every cast delivered individually. *)
let test_deploy_size_flush () =
  let topo = Net.Topology.symmetric ~groups:2 ~per_group:2 in
  let dep = RA1.deploy ~seed:0 ~latency:crisp_latency ~config:batched_config topo in
  let wl =
    List.init 8 (fun i ->
        {
          Harness.Workload.at = ms 10;
          origin = 0;
          dest = [ 0; 1 ];
          payload = Fmt.str "m%d" i;
        })
  in
  ignore (RA1.schedule dep wl);
  let r = RA1.run_deployment dep in
  check_no_violations "size flush"
    (Harness.Checker.check_all ~check_quiescence:true r);
  Alcotest.(check int) "all delivered" 8 (Harness.Metrics.delivered_count r);
  let stats = Amcast.A1.stats (RA1.node dep 0) in
  Alcotest.(check int) "two full batches" 2 (List.assoc "batches_formed" stats);
  Alcotest.(check int) "packed to the brim" 4
    (List.assoc "casts_per_batch_max" stats)

(* A crash between a cast and its batch flush loses the buffered cast with
   the caster — indistinguishable from crashing just before casting, which
   validity already exempts. The run stays clean; only the healthy cast is
   delivered. *)
let test_deploy_crash_mid_batch () =
  let topo = Net.Topology.symmetric ~groups:2 ~per_group:3 in
  let dep =
    RA1.deploy ~seed:0 ~latency:crisp_latency
      ~config:{ batched_config with batch_max = 8; batch_delay = ms 5 }
      ~faults:[ Harness.Runner.crash ~at:(ms 12) 0 ]
      topo
  in
  ignore (RA1.cast_at dep ~at:(ms 10) ~origin:0 ~dest:[ 0; 1 ] ());
  ignore (RA1.cast_at dep ~at:(ms 30) ~origin:1 ~dest:[ 0; 1 ] ());
  let r = RA1.run_deployment dep in
  check_no_violations "crash mid-batch" (Harness.Checker.check_all r);
  Alcotest.(check int) "buffered cast lost with its caster" 1
    (Harness.Metrics.delivered_count r)

(* ---------- pipelined consensus ---------- *)

let delivery_tuples (r : Harness.Run_result.t) =
  List.map
    (fun (d : Harness.Run_result.delivery_event) ->
      (d.pid, d.msg.Amcast.Msg.id, d.at))
    r.deliveries

(* With every lane knob at its default value the added fields are dead
   state: changing an unused knob (the flush delay while batching is off)
   must leave the run bit-identical. *)
let test_unused_knobs_bit_identical () =
  let topo = Net.Topology.symmetric ~groups:3 ~per_group:2 in
  let rng = Des.Rng.create 11 in
  let wl =
    Harness.Workload.generate ~rng ~topology:topo ~n:12
      ~dest:(Harness.Workload.Random_groups 3)
      ~arrival:(`Poisson (ms 8))
      ()
  in
  let run config = RA1.run ~seed:4 ~latency:wan ~config topo wl in
  let a = run Amcast.Protocol.Config.default in
  let b =
    run
      {
        Amcast.Protocol.Config.default with
        Amcast.Protocol.Config.batch_delay = ms 50;
      }
  in
  Alcotest.(check int) "events" a.events_executed b.events_executed;
  Alcotest.(check int) "inter msgs" a.inter_group_msgs b.inter_group_msgs;
  Alcotest.(check int) "intra msgs" a.intra_group_msgs b.intra_group_msgs;
  Alcotest.(check bool) "same deliveries" true
    (delivery_tuples a = delivery_tuples b)

(* Pipelining under jittery WAN latencies: decides for instance K+1 can
   arrive before K's; the window must apply them in instance order and the
   run must stay clean with every message delivered. *)
let pipelined (type a) (module P : Amcast.Protocol.S with type t = a)
    ~broadcast_only ~depth_at () =
  let module R = Harness.Runner.Make (P) in
  let topo = Net.Topology.symmetric ~groups:3 ~per_group:2 in
  let rng = Des.Rng.create 5 in
  let wl =
    Harness.Workload.generate ~rng ~topology:topo ~n:30
      ~dest:
        (if broadcast_only then Harness.Workload.To_all_groups
         else Harness.Workload.Random_groups 3)
      ~arrival:(`Poisson (ms 3))
      ()
  in
  let config =
    { Amcast.Protocol.Config.default with Amcast.Protocol.Config.pipeline = 4 }
  in
  let dep = R.deploy ~seed:5 ~latency:wan ~config topo in
  ignore (R.schedule dep wl);
  let r = R.run_deployment dep in
  check_no_violations "pipelined run"
    (Harness.Checker.check_all ~check_quiescence:true r);
  Alcotest.(check int) "all delivered" 30 (Harness.Metrics.delivered_count r);
  let depth =
    List.fold_left
      (fun acc pid -> max acc (depth_at (R.node dep pid)))
      0
      (Net.Topology.all_pids topo)
  in
  Alcotest.(check bool) "window used (depth >= 2)" true (depth >= 2)

let stat_depth stats = List.assoc "pipeline_depth_max" stats

let test_a1_pipelined () =
  pipelined
    (module Amcast.A1)
    ~broadcast_only:false
    ~depth_at:(fun n -> stat_depth (Amcast.A1.stats n))
    ()

let test_a2_pipelined () =
  pipelined
    (module Amcast.A2)
    ~broadcast_only:true
    ~depth_at:(fun n -> stat_depth (Amcast.A2.stats n))
    ()

(* ---------- lease-path pipelining regressions ---------- *)

(* Hazards fixed in the consensus lease path for the pipelining window:
   (1) GC must cancel the retry timer of an instance it prunes, (2) late
   Accepted/Decide for a retired instance must not resurrect its state,
   (3) a clock jump consumes undecided in-flight instances, whose timers
   and table entries must go with them. All three would show up here as a
   run that never quiesces or as retained instance state after the GC
   watermark passed. *)
let test_pipelined_quiescence_and_gc () =
  let topo = Net.Topology.symmetric ~groups:3 ~per_group:3 in
  let rng = Des.Rng.create 9 in
  let wl =
    Harness.Workload.generate ~rng ~topology:topo ~n:40
      ~dest:(Harness.Workload.Random_groups 3)
      ~arrival:(`Poisson (ms 3))
      ()
  in
  let dep =
    RA1.deploy ~seed:9 ~latency:wan
      ~config:Amcast.Protocol.Config.throughput topo
  in
  ignore (RA1.schedule dep wl);
  let r = RA1.run_deployment dep in
  check_no_violations "quiesces"
    (Harness.Checker.check_all ~check_quiescence:true r);
  Alcotest.(check int) "all delivered" 40 (Harness.Metrics.delivered_count r);
  List.iter
    (fun pid ->
      let retained =
        List.assoc "cons.instances" (Amcast.A1.stats (RA1.node dep pid))
      in
      if retained > 12 then
        Alcotest.failf "p%d retains %d consensus instances after GC" pid
          retained)
    (Net.Topology.all_pids topo)

(* Regression for the pipelined double-decide: two in-flight instances can
   both decide the same message at stage s0, and reprocessing the
   duplicate used to reassign the group timestamp after the (TS, m)
   fan-out had left — different groups then disagreed on the final
   timestamps and delivered [0,2]-bound messages in different orders.
   This seed + nemesis plan reproduced it before the fix. *)
let test_pipelined_double_decide_ordering () =
  let topo = Net.Topology.symmetric ~groups:3 ~per_group:3 in
  let rng = Des.Rng.create 1 in
  let wl =
    Harness.Workload.generate ~rng ~topology:topo ~n:24
      ~dest:(Harness.Workload.Zipfian_groups { kmax = 2; theta = 1.0 })
      ~arrival:(`Poisson (ms 4))
      ()
  in
  let plan = Harness.Nemesis.generate ~rng ~topology:topo () in
  let r =
    RA1.run ~seed:1 ~latency:crisp_latency
      ~config:Amcast.Protocol.Config.throughput ~nemesis:plan topo wl
  in
  check_no_violations "consistent cross-group order"
    (Harness.Checker.check_all
       ~liveness_from:(Harness.Nemesis.liveness_from plan)
       r)

(* ---------- verdict differentials (qcheck) ---------- *)

(* The lane may change counts and timings, never verdicts: on the same
   scenario — including crash schedules and nemesis plans — the batched
   config and the unbatched default must produce identical checker
   verdicts. *)
let prop_verdict_differential proto (seed, with_nemesis) =
  let scenario =
    Harness.Campaign.scenario_at ~seed ~with_crashes:true ~with_nemesis 0
  in
  let verdicts config =
    (Harness.Campaign.run_one proto ~config scenario).Harness.Campaign
    .violations
  in
  let b = verdicts Amcast.Protocol.Config.throughput in
  let u = verdicts Amcast.Protocol.Config.default in
  b = u
  || QCheck2.Test.fail_reportf
       "seed %d%s: batched verdicts %a, unbatched %a" seed
       (if with_nemesis then " (nemesis)" else "")
       Fmt.(Dump.list string)
       b
       Fmt.(Dump.list string)
       u

(* Fault-free knob grid: any (batch, delay, window) combination delivers
   exactly what the unbatched default does, with identical verdicts. *)
let prop_knob_grid (seed, batch_max, delay_ms, pipeline) =
  let scenario =
    Harness.Campaign.scenario_at ~seed ~with_crashes:false 0
  in
  let outcome config = Harness.Campaign.run_one (module Amcast.A1 : Amcast.Protocol.S) ~config scenario in
  let b =
    outcome
      {
        Amcast.Protocol.Config.default with
        Amcast.Protocol.Config.batch_max;
        batch_delay = ms delay_ms;
        pipeline;
      }
  in
  let u = outcome Amcast.Protocol.Config.default in
  (b.Harness.Campaign.violations = u.Harness.Campaign.violations
  && b.Harness.Campaign.delivered = u.Harness.Campaign.delivered)
  || QCheck2.Test.fail_reportf
       "seed %d batch %d delay %dms window %d: %d/%a vs %d/%a" seed batch_max
       delay_ms pipeline b.Harness.Campaign.delivered
       Fmt.(Dump.list string)
       b.Harness.Campaign.violations u.Harness.Campaign.delivered
       Fmt.(Dump.list string)
       u.Harness.Campaign.violations

let differential_gen =
  QCheck2.Gen.(pair (int_bound 10_000) bool)

let knob_gen =
  QCheck2.Gen.(
    quad (int_bound 10_000) (int_range 1 8) (int_range 0 5) (int_range 1 4))

(* ---------- model-checked outcome sets ---------- *)

module EA1 = Mc.Explorer.Make (Amcast.A1)

let mc_cast at origin dest payload =
  { Harness.Workload.at = us at; origin; dest; payload }

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* Different origins: batches stay singletons (the batcher is per
   process), so the batched lane must reach exactly the unbatched
   outcome set under exhaustive exploration. *)
let test_mc_outcomes_distinct_origins () =
  let casts =
    [ mc_cast 1_000 0 [ 0; 1 ] "m0"; mc_cast 2_000 2 [ 0; 1 ] "m1" ]
  in
  let explore config =
    EA1.explore
      (EA1.make_setup ~reorder_bound:1 ~config
         ~topology:(Net.Topology.make ~sizes:[ 2; 2 ])
         casts)
  in
  let b = explore Amcast.Protocol.Config.throughput in
  let u = explore Amcast.Protocol.Config.default in
  Alcotest.(check bool) "batched exhaustive" true b.EA1.stats.EA1.exhaustive;
  Alcotest.(check bool) "unbatched exhaustive" true u.EA1.stats.EA1.exhaustive;
  Alcotest.(check bool) "batched clean" true (b.EA1.violation = None);
  Alcotest.(check (list int))
    "same outcome set" u.EA1.outcome_digests b.EA1.outcome_digests

(* Same origin, same instant: the two casts pack into one batch, which
   removes interleavings but must not invent outcomes — the batched
   outcome set is a non-empty subset of the unbatched one. *)
let test_mc_outcomes_packed_batch () =
  let casts =
    [ mc_cast 1_000 0 [ 0; 1 ] "m0"; mc_cast 1_000 0 [ 0; 1 ] "m1" ]
  in
  let explore config =
    EA1.explore
      (EA1.make_setup ~reorder_bound:1 ~config
         ~topology:(Net.Topology.make ~sizes:[ 2; 2 ])
         casts)
  in
  let b =
    explore
      {
        Amcast.Protocol.Config.throughput with
        Amcast.Protocol.Config.batch_max = 2;
      }
  in
  let u = explore Amcast.Protocol.Config.default in
  Alcotest.(check bool) "batched exhaustive" true b.EA1.stats.EA1.exhaustive;
  Alcotest.(check bool) "unbatched exhaustive" true u.EA1.stats.EA1.exhaustive;
  Alcotest.(check bool) "batched clean" true (b.EA1.violation = None);
  Alcotest.(check bool) "some outcome reached" true
    (b.EA1.outcome_digests <> []);
  Alcotest.(check bool) "no invented outcomes" true
    (subset b.EA1.outcome_digests u.EA1.outcome_digests)

(* ---------- suites ---------- *)

let suites =
  [
    ( "throughput-batcher",
      [
        Alcotest.test_case "max=1 is a synchronous bypass" `Quick
          test_batcher_bypass;
        Alcotest.test_case "size-triggered flush" `Quick
          test_batcher_size_trigger;
        Alcotest.test_case "timeout-triggered flush, oldest bucket first"
          `Quick test_batcher_timeout_trigger;
        Alcotest.test_case "size flush leaves other buckets buffered" `Quick
          test_batcher_size_flush_leaves_other_buckets;
        Alcotest.test_case "deployment: timer flush delivers" `Quick
          test_deploy_timeout_flush;
        Alcotest.test_case "deployment: full batches, per-cast delivery"
          `Quick test_deploy_size_flush;
        Alcotest.test_case "deployment: crash mid-batch stays clean" `Quick
          test_deploy_crash_mid_batch;
      ] );
    ( "throughput-pipeline",
      [
        Alcotest.test_case "unused knobs leave runs bit-identical" `Quick
          test_unused_knobs_bit_identical;
        Alcotest.test_case "a1: window=4 under jitter, in-order decides"
          `Quick test_a1_pipelined;
        Alcotest.test_case "a2: window=4 under jitter, in-order decides"
          `Quick test_a2_pipelined;
        Alcotest.test_case "lease path: pipelined quiescence and GC" `Quick
          test_pipelined_quiescence_and_gc;
        Alcotest.test_case "regression: pipelined double-decide ordering"
          `Quick test_pipelined_double_decide_ordering;
      ] );
    ( "throughput-differential",
      [
        qcheck_case ~count:20
          ~name:"a1: batched verdicts = unbatched (crashes, nemesis)"
          differential_gen
          (prop_verdict_differential (module Amcast.A1 : Amcast.Protocol.S));
        qcheck_case ~count:20
          ~name:"a2: batched verdicts = unbatched (crashes, nemesis)"
          differential_gen
          (fun (seed, n) ->
            let scenario =
              Harness.Campaign.scenario_at ~seed ~broadcast_only:true
                ~with_crashes:true ~with_nemesis:n 0
            in
            let verdicts config =
              (Harness.Campaign.run_one
                 (module Amcast.A2 : Amcast.Protocol.S)
                 ~config scenario)
                .Harness.Campaign.violations
            in
            verdicts Amcast.Protocol.Config.throughput
            = verdicts Amcast.Protocol.Config.default);
        qcheck_case ~count:25
          ~name:"a1: any knob combination delivers the unbatched outcome"
          knob_gen prop_knob_grid;
      ] );
    ( "throughput-mc",
      [
        Alcotest.test_case "distinct origins: outcome sets equal" `Quick
          test_mc_outcomes_distinct_origins;
        Alcotest.test_case "packed batch: no invented outcomes" `Quick
          test_mc_outcomes_packed_batch;
      ] );
  ]
