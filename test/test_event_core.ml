(* The DES event core: event queue, scheduler and network arrival path.

   Golden pin: A1 under [Config.throughput] on 10 groups x 5 processes,
   500 casts and one crash that loses its in-flight sends, reduced to the
   event count, a per-pid delivery digest and the network's counters. The
   literals were captured from a boxed-record binary heap and have held
   through the flat heap and the calendar queue that replaced it; any
   change to the (time, insertion) pop order, to the rng draw order or to
   the fan-out arrival order moves at least one of them.

   The queue itself is checked against [Naive_event_queue], a sorted
   list: once on short runs at small times, comparing the enabled set
   after every operation, and once on long runs whose times spread from
   one bucket to far beyond any window, which cross slab resizes and
   geometry retunes. *)

open Des
open Net

(* Per-pid version of [Mc.Explorer.digest] (same mixing step). *)
let mix h v = ((h * 0x100000001b3) + v + 1) land max_int

let pid_digests (r : Harness.Run_result.t) =
  List.map
    (fun pid ->
      List.fold_left
        (fun h (m : Amcast.Msg.t) ->
          let h = mix h m.id.Runtime.Msg_id.origin in
          mix h m.id.Runtime.Msg_id.seq)
        (mix 17 (-1))
        (Harness.Run_result.sequence_of r pid))
    (Topology.all_pids r.topology)

module RA1 = Harness.Runner.Make (Amcast.A1)

let golden_run () =
  let topo = Topology.symmetric ~groups:10 ~per_group:5 in
  let w =
    Harness.Workload.generate ~rng:(Rng.create 41) ~topology:topo ~n:500
      ~dest:(Harness.Workload.Random_groups 3)
      ~arrival:(`Poisson (Sim_time.of_ms 5))
      ()
  in
  let dep =
    (* Trace on: the harness reads crashes back from the trace, and its
       length pins the Send/Receive records of the traced path. *)
    RA1.deploy ~seed:11 ~latency:Latency.wan_default
      ~config:Amcast.Protocol.Config.throughput ~record_trace:true
      ~faults:
        [ Harness.Runner.crash ~drop:Runtime.Engine.Lose_all_inflight
            ~at:(Sim_time.of_ms 900) 17 ]
      topo
  in
  ignore (RA1.schedule dep w);
  let r = RA1.run_deployment dep in
  (r, Runtime.Engine.network (RA1.engine dep))

let golden_events = 67783
let golden_trace = 137912
let golden_counters = (66692, 35755, 30937)

(* p17 is the crashed process; its digest alone differs in group 3. *)
let golden_digests =
  [
    (* group 0 *)
    2211677642143834223; 2211677642143834223; 2211677642143834223;
    2211677642143834223; 2211677642143834223;
    (* group 1 *)
    1872467910358010025; 1872467910358010025; 1872467910358010025;
    1872467910358010025; 1872467910358010025;
    (* group 2 *)
    4602174765477283806; 4602174765477283806; 4602174765477283806;
    4602174765477283806; 4602174765477283806;
    (* group 3 *)
    2180875692725391125; 2180875692725391125; 2347875966937013234;
    2180875692725391125; 2180875692725391125;
    (* group 4 *)
    4226185890777357231; 4226185890777357231; 4226185890777357231;
    4226185890777357231; 4226185890777357231;
    (* group 5 *)
    580163392701916999; 580163392701916999; 580163392701916999;
    580163392701916999; 580163392701916999;
    (* group 6 *)
    213429072419135282; 213429072419135282; 213429072419135282;
    213429072419135282; 213429072419135282;
    (* group 7 *)
    979404432385814763; 979404432385814763; 979404432385814763;
    979404432385814763; 979404432385814763;
    (* group 8 *)
    3899063266009125132; 3899063266009125132; 3899063266009125132;
    3899063266009125132; 3899063266009125132;
    (* group 9 *)
    4509112795201843139; 4509112795201843139; 4509112795201843139;
    4509112795201843139; 4509112795201843139;
  ]

let test_golden () =
  let r, net = golden_run () in
  Util.check_no_violations "a1 clean" (Harness.Checker.check_all r);
  Alcotest.(check bool) "drained" true r.drained;
  Alcotest.(check int) "events executed" golden_events r.events_executed;
  Alcotest.(check int) "trace entries" golden_trace
    (Runtime.Trace.length r.trace);
  Alcotest.(check (triple int int int))
    "sent / inter / intra" golden_counters
    ( Network.sent_total net,
      Network.sent_inter_group net,
      Network.sent_intra_group net );
  Alcotest.(check (list int)) "per-pid digests" golden_digests (pid_digests r)

(* Zero jitter: every destination of a fan-out in one group arrives at the
   same instant, and each fan-out delivers its equal arrivals in
   destination-list order. The interleaving of two fan-outs differs by
   mode: the slab re-arms at pop time, so its next delivery queues behind
   events added meanwhile, while the model checker's exploded mode
   queues every delivery at send time. *)
let test_fanout_equal_arrivals () =
  let topo = Topology.symmetric ~groups:2 ~per_group:4 in
  let deliveries explode =
    let sched = Scheduler.create () in
    let got = ref [] in
    let net =
      Network.create ~sched ~topology:topo ~latency:Util.crisp_latency
        ~rng:(Rng.create 1)
        ~deliver:(fun ~src:_ ~dst ~lc:_ ~env:_ w ->
          got := (w, dst, Sim_time.to_us (Scheduler.now sched)) :: !got)
    in
    Network.set_explode_fanout net explode;
    Network.send_multi net ~src:0 ~dsts:[ 6; 2; 4; 1; 7; 3; 5; 0 ] ~lc:0
      ~env:0 "a";
    Network.send_multi net ~src:5 ~dsts:[ 3; 7; 0; 4 ] ~lc:0 ~env:0 "b";
    Scheduler.run sched;
    List.rev !got
  in
  let order = Alcotest.(list (triple string int int)) in
  Alcotest.check order "slab mode"
    [
      ("a", 2, 1_000); ("b", 7, 1_000); ("a", 1, 1_000); ("b", 4, 1_000);
      ("a", 3, 1_000); ("a", 0, 1_000);
      ("b", 3, 50_000); ("a", 6, 50_000); ("b", 0, 50_000);
      ("a", 4, 50_000); ("a", 7, 50_000); ("a", 5, 50_000);
    ]
    (deliveries false);
  Alcotest.check order "exploded mode"
    [
      ("a", 2, 1_000); ("a", 1, 1_000); ("a", 3, 1_000); ("a", 0, 1_000);
      ("b", 7, 1_000); ("b", 4, 1_000);
      ("a", 6, 50_000); ("a", 4, 50_000); ("a", 7, 50_000);
      ("a", 5, 50_000); ("b", 3, 50_000); ("b", 0, 50_000);
    ]
    (deliveries true)

(* ----- Event_queue against its naive twin ----- *)

module Q = Event_queue
module N = Naive_event_queue

type op =
  | Add of int
  | Add_tagged of int * int * int
  | Cancel of int (* a selector: see [pick] *)
  | Take of int
  | Pop
  | Peek
  | Burst of int * int
      (* [Burst (n, t)]: add [n] entries at times from [t], then cancel
         two in three of them *)
  | After of int (* add at the last pop's time plus this, floored at 0 *)
  | Same of int * int (* [Same (n, d)]: [n] adds at one time, as [After d] *)

(* Handle kinds a [Cancel]/[Take] selector can name: one still pending,
   one popped or taken, one already cancelled, one never issued. *)
let pick (m : int N.t) ~gone ~cancelled k =
  let nth = function
    | [] -> None
    | l -> Some (List.nth l (k / 4 mod List.length l))
  in
  let fallback = Option.value ~default:(m.next + (k / 4)) in
  match k mod 4 with
  | 0 -> fallback (nth (List.map (fun (h, _, _) -> h) (N.live m)))
  | 1 -> fallback (nth gone)
  | 2 -> fallback (nth cancelled)
  | _ -> if k mod 8 = 3 then m.next + (k / 8) else -1 - (k / 8)

(* The naive twin issues dense handles 0, 1, 2, ...; the queue's handles
   only increase. [real] maps a twin handle to the queue's: issued ones
   through the table, a never-issued one to a value above every handle
   the queue has returned, a negative one to itself. *)
let model_agrees ?(every_step = true) ops =
  let q = Q.create ~dummy:(-1) and m = N.create () in
  let last_pop = ref 0 in
  let gone = ref [] and cancelled = ref [] in
  let issued = Hashtbl.create 64 and last = ref (-1) in
  let real h =
    if h < 0 then h
    else
      match Hashtbl.find_opt issued h with
      | Some r -> r
      | None -> !last + 1 + (h - m.next)
  in
  let time t = Sim_time.of_us t in
  let live_q () =
    List.map (fun (h, t, tag) -> (h, Sim_time.to_us t, tag)) (Q.live q)
  in
  let live_m () = List.map (fun (h, t, tag) -> (real h, t, tag)) (N.live m) in
  let cancel_both h =
    Q.cancel q (real h);
    N.cancel m h
  in
  let cancel k =
    let h = pick m ~gone:!gone ~cancelled:!cancelled k in
    if List.exists (fun (h', _, _) -> h' = h) (N.live m) then
      cancelled := h :: !cancelled;
    cancel_both h
  in
  (* Payloads are the twin's handles. A handle must exceed every earlier
     one: insertion order is the tie-break the queue and [live] rely on. *)
  let issue got h =
    let increasing = got > !last in
    Hashtbl.replace issued h got;
    last := got;
    increasing
  in
  let add_tagged t ~tag ~arg =
    let h = m.next in
    let got = Q.add_tagged q ~time:(time t) ~tag ~arg h in
    issue got (N.add_tagged m ~time:t ~tag ~arg h)
  in
  let add t =
    let h = m.next in
    let got = Q.add q ~time:(time t) h in
    issue got (N.add m ~time:t h)
  in
  let after d =
    if d = max_int then Sim_time.to_us Sim_time.infinity
    else Int.max 0 (!last_pop + d)
  in
  List.for_all
    (fun op ->
      let step_ok =
        match op with
        | Add t -> add t
        | Add_tagged (t, tag, arg) -> add_tagged t ~tag ~arg
        | Cancel k ->
          cancel k;
          true
        | Take k ->
          let h = pick m ~gone:!gone ~cancelled:!cancelled k in
          let got =
            Option.map
              (fun (t, a, p) -> (Sim_time.to_us t, a, p))
              (Q.take q (real h))
          in
          let want = N.take m h in
          if want <> None then gone := h :: !gone;
          got = want
        | Pop ->
          let got =
            Option.map (fun (t, p) -> (Sim_time.to_us t, p)) (Q.pop q)
          in
          let want = N.pop m in
          Option.iter
            (fun (t, h) ->
              last_pop := t;
              gone := h :: !gone)
            want;
          got = want
        | Peek ->
          Option.map Sim_time.to_us (Q.peek_time q) = N.peek_time m
        | Burst (n, t) ->
          let first = m.next in
          let added =
            List.for_all (fun i -> add (t + (i mod 7))) (List.init n Fun.id)
          in
          for h = first to first + n - 1 do
            if h mod 3 <> 0 then begin
              cancel_both h;
              cancelled := h :: !cancelled
            end
          done;
          added
        | After d -> add (after d)
        | Same (n, d) ->
          let t = after d in
          List.for_all (fun _ -> add t) (List.init n Fun.id)
      in
      step_ok && Q.size q = N.size m && ((not every_step) || live_q () = live_m ()))
    ops
  && live_q () = live_m ()

let op_gen =
  QCheck2.Gen.(
    let time = int_bound 60 in
    frequency
      [
        (4, map (fun t -> Add t) time);
        (2, map3 (fun t tag arg -> Add_tagged (t, tag, arg)) time
              (int_range (-8) 40) (int_bound 1_000));
        (5, map (fun k -> Cancel k) (int_bound 400));
        (1, map (fun k -> Take k) (int_bound 400));
        (3, pure Pop);
        (1, pure Peek);
        (1, map2 (fun n t -> Burst (n, t)) (int_range 100 200) time);
      ])

let show_op = function
  | Add t -> Printf.sprintf "Add %d" t
  | Add_tagged (t, tag, arg) ->
    Printf.sprintf "Add_tagged (%d, %d, %d)" t tag arg
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Take k -> Printf.sprintf "Take %d" k
  | Pop -> "Pop"
  | Peek -> "Peek"
  | Burst (n, t) -> Printf.sprintf "Burst (%d, %d)" n t
  | After d -> Printf.sprintf "After %d" d
  | Same (n, d) -> Printf.sprintf "Same (%d, %d)" n d

let prop_event_queue_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"event queue = naive sorted list"
       ~print:QCheck2.Print.(list show_op)
       QCheck2.Gen.(list_size (int_range 1 120) op_gen)
       model_agrees)

(* Times relative to the last pop, spread so that the queue's geometry
   is exercised: gaps within one bucket and across many, inserts below
   the last pop (some by more than any window, which sends the cursor
   back a lap), entries far beyond any window (up to 2^40 us, and
   [Sim_time.infinity]), and bursts at one instant. Runs are long enough
   to cross several slab resizes and several retunes. *)
let wide_op_gen =
  QCheck2.Gen.(
    let delta =
      frequency
        [
          (4, int_bound 64);
          (3, int_bound 5_000);
          (2, map (fun k -> -k) (int_bound 3_000));
          (1, map (fun k -> -(1 lsl k)) (int_range 10 30));
          (2, map (fun k -> 1 lsl k) (int_range 16 40));
          (1, pure max_int);
        ]
    in
    frequency
      [
        (6, map (fun d -> After d) delta);
        (1, map2 (fun n d -> Same (n, d)) (int_range 2 40) delta);
        (5, pure Pop);
        (2, map (fun k -> Cancel k) (int_bound 400));
        (1, map (fun k -> Take k) (int_bound 400));
        (1, pure Peek);
      ])

let prop_event_queue_wide =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:"event queue = naive list, wide times and long runs"
       ~print:QCheck2.Print.(list show_op)
       QCheck2.Gen.(list_size (int_range 50 700) wide_op_gen)
       (model_agrees ~every_step:false))

(* A handle names its slot; once the slot is reused by a later entry, the
   old handle is stale and cancelling it must leave the new entry live. *)
let test_stale_handle () =
  let q = Q.create ~dummy:"" in
  let old = Q.add q ~time:(Sim_time.of_us 1) "old" in
  Alcotest.(check (option string)) "pop old" (Some "old")
    (Option.map snd (Q.pop q));
  let fresh = Q.add q ~time:(Sim_time.of_us 2) "new" in
  Alcotest.(check bool) "handles increase" true (fresh > old);
  Q.cancel q old;
  Alcotest.(check int) "new entry still live" 1 (Q.size q);
  Alcotest.(check bool) "take of the stale handle" true (Q.take q old = None);
  Alcotest.(check (option string)) "pop new" (Some "new")
    (Option.map snd (Q.pop q))

(* [cancel] unlinks the entry and drops its payload at once. *)
let test_cancel_frees_payload () =
  let q = Q.create ~dummy:(ref 0) in
  let keep = Q.add q ~time:(Sim_time.of_us 1) (ref 1) in
  let w = Weak.create 1 in
  let h =
    let payload = ref 2 in
    Weak.set w 0 (Some payload);
    Q.add q ~time:(Sim_time.of_us 2) payload
  in
  Q.cancel q h;
  Gc.full_major ();
  Alcotest.(check bool) "payload collected" false (Weak.check w 0);
  Alcotest.(check int) "one live entry" 1 (Q.size q);
  Alcotest.(check (option int)) "live entry intact" (Some 1)
    (Option.map (fun (_, r) -> !r) (Q.pop q));
  ignore keep;
  Alcotest.(check bool) "drained" true (Q.pop q = None)

let suites =
  [
    ( "event-core",
      [
        Alcotest.test_case "golden pin: a1 throughput 10x5" `Slow test_golden;
        Alcotest.test_case "fan-out: equal arrivals in destination order"
          `Quick test_fanout_equal_arrivals;
        prop_event_queue_model;
        Alcotest.test_case "event queue: stale handle is a no-op" `Quick
          test_stale_handle;
        Alcotest.test_case "event queue: cancel frees the payload" `Quick
          test_cancel_frees_payload;
        prop_event_queue_wide;
      ] );
  ]
