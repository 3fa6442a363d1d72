open Des
open Net
open Runtime

(* A tiny echo protocol: pid 0 sends "ping" to everyone, everyone replies
   "pong" to the source. Exercises sends, receives, Lamport accounting. *)
type wire = Ping | Pong

let tag = function Ping -> "ping" | Pong -> "pong"

let make_echo_engine ?(latency = Util.crisp_latency) topology =
  let engine = Engine.create ~latency ~tag topology in
  let received = ref [] in
  List.iter
    (fun pid ->
      Engine.spawn engine pid (fun services ->
          ( (),
            {
              Engine.on_receive =
                (fun ~src w ->
                  received := (pid, src, w) :: !received;
                  match w with
                  | Ping -> services.Services.send ~dst:src Pong
                  | Pong -> ());
            } )))
    (Topology.all_pids topology);
  (engine, received)

let test_engine_echo () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let engine, received = make_echo_engine topo in
  let s0 = Engine.services engine 0 in
  Engine.at engine (Sim_time.of_ms 1) (fun () ->
      List.iter
        (fun dst -> s0.Services.send ~dst Ping)
        [ 1; 2; 3 ]);
  Engine.run engine;
  let pings = List.filter (fun (_, _, w) -> w = Ping) !received in
  let pongs = List.filter (fun (_, _, w) -> w = Pong) !received in
  Alcotest.(check int) "pings" 3 (List.length pings);
  Alcotest.(check int) "pongs" 3 (List.length pongs)

let test_lamport_rules () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let engine, _ = make_echo_engine topo in
  let s0 = Engine.services engine 0 in
  Engine.at engine (Sim_time.of_ms 1) (fun () ->
      s0.Services.send ~dst:1 Ping; (* intra: no tick *)
      s0.Services.send ~dst:2 Ping (* inter: tick *));
  Engine.run engine;
  (* End of run: p1 only ever saw intra-group traffic carrying 0. *)
  Alcotest.(check int) "intra receiver clock" 0 (Engine.lc engine 1);
  (* p2 received an inter-group ping carrying 0+1; its own reply did not
     advance its clock (sends never advance the sender). *)
  Alcotest.(check int) "inter receiver clock" 1 (Engine.lc engine 2);
  (* p0 received p2's inter-group pong carrying 1+1. *)
  Alcotest.(check int) "sender clock after replies" 2 (Engine.lc engine 0)

let test_crash_stops_process () =
  let topo = Topology.symmetric ~groups:1 ~per_group:2 in
  let engine, received = make_echo_engine topo in
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 5) 1;
  let s0 = Engine.services engine 0 in
  (* Before the crash: p1 replies. After: silence. *)
  Engine.at engine (Sim_time.of_ms 1) (fun () -> s0.Services.send ~dst:1 Ping);
  Engine.at engine (Sim_time.of_ms 10) (fun () -> s0.Services.send ~dst:1 Ping);
  Engine.run engine;
  let by_p1 = List.filter (fun (pid, _, _) -> pid = 1) !received in
  Alcotest.(check int) "p1 received only the first ping" 1 (List.length by_p1);
  Alcotest.(check bool) "alive flag" false (Engine.alive engine 1)

let test_crash_lose_inflight () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let engine, received = make_echo_engine topo in
  let s0 = Engine.services engine 0 in
  (* p0 sends at 1ms (inter-group: arrives ~51ms), crashes at 2ms losing
     everything in flight. *)
  Engine.at engine (Sim_time.of_ms 1) (fun () -> s0.Services.send ~dst:1 Ping);
  Engine.schedule_crash ~drop:Engine.Lose_all_inflight engine
    ~at:(Sim_time.of_ms 2) 0;
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 (List.length !received)

let test_crash_lose_to_subset () =
  let topo = Topology.symmetric ~groups:3 ~per_group:1 in
  let engine, received = make_echo_engine topo in
  let s0 = Engine.services engine 0 in
  Engine.at engine (Sim_time.of_ms 1) (fun () ->
      s0.Services.send ~dst:1 Ping;
      s0.Services.send ~dst:2 Ping);
  Engine.schedule_crash ~drop:(Engine.Lose_to [ 1 ]) engine
    ~at:(Sim_time.of_ms 2) 0;
  Engine.run engine;
  let receivers = List.map (fun (pid, _, _) -> pid) !received in
  Alcotest.(check (list int)) "only p2 got the ping" [ 2 ] receivers

let test_timer_fires_and_cancels () =
  let topo = Topology.symmetric ~groups:1 ~per_group:1 in
  let engine, _ = make_echo_engine topo in
  let s0 = Engine.services engine 0 in
  let fired = ref [] in
  Engine.at engine Sim_time.zero (fun () ->
      ignore (s0.Services.set_timer ~after:(Sim_time.of_ms 1) (fun () ->
          fired := 1 :: !fired));
      let h = s0.Services.set_timer ~after:(Sim_time.of_ms 2) (fun () ->
          fired := 2 :: !fired) in
      s0.Services.cancel_timer h);
  Engine.run engine;
  Alcotest.(check (list int)) "only uncancelled timer fired" [ 1 ] !fired

let test_timer_inert_after_crash () =
  let topo = Topology.symmetric ~groups:1 ~per_group:1 in
  let engine, _ = make_echo_engine topo in
  let s0 = Engine.services engine 0 in
  let fired = ref false in
  Engine.at engine Sim_time.zero (fun () ->
      ignore
        (s0.Services.set_timer ~after:(Sim_time.of_ms 10) (fun () ->
             fired := true)));
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 5) 0;
  Engine.run engine;
  Alcotest.(check bool) "timer skipped after crash" false !fired

let test_crash_detection_subscription () =
  let topo = Topology.symmetric ~groups:1 ~per_group:2 in
  let engine, _ = make_echo_engine topo in
  let s0 = Engine.services engine 0 in
  let detected = ref [] in
  s0.Services.on_crash_detected ~delay:(Sim_time.of_ms 7) (fun pid ->
      detected := (pid, Engine.now engine) :: !detected);
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 3) 1;
  Engine.run engine;
  match !detected with
  | [ (1, t) ] ->
    Alcotest.(check int) "detected at crash + delay" 10_000 (Sim_time.to_us t)
  | _ -> Alcotest.fail "expected exactly one detection"

(* Regression: a crash notification must not reach a subscriber that has
   itself crashed by the time the notification fires — a dead failure
   detector reports nothing. *)
let test_crash_notification_skips_dead_subscriber () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let engine, _ = make_echo_engine topo in
  let s0 = Engine.services engine 0 in
  let detected = ref [] in
  s0.Services.on_crash_detected ~delay:(Sim_time.of_ms 7) (fun pid ->
      detected := pid :: !detected);
  (* p1's crash at 3ms would be notified at 10ms, but the subscriber p0
     is itself dead from 5ms on. *)
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 3) 1;
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 5) 0;
  Engine.run engine;
  Alcotest.(check (list int)) "no notification to the dead subscriber" []
    !detected

(* A late subscriber hears every process already dead, once each, in
   ascending pid order, [delay] after it subscribed; a live process is
   never reported, and a subscriber that dies before its notifications
   fire hears nothing. *)
let test_late_subscription_reports_dead_ascending () =
  let topo = Topology.symmetric ~groups:1 ~per_group:5 in
  let engine, _ = make_echo_engine topo in
  let heard = Array.make 5 [] in
  let subscribe pid =
    (Engine.services engine pid).Services.on_crash_detected
      ~delay:(Sim_time.of_ms 7) (fun q ->
        heard.(pid) <- (q, Sim_time.to_us (Engine.now engine)) :: heard.(pid))
  in
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 1) 2;
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 2) 0;
  Engine.at engine (Sim_time.of_ms 5) (fun () ->
      subscribe 3;
      subscribe 4);
  (* p4 dies before its reports of p0 and p2 fire at 12ms. *)
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 8) 4;
  Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "p3 hears p0 then p2 at subscribe + delay, then p4 at crash + delay"
    [ (0, 12_000); (2, 12_000); (4, 15_000) ]
    (List.rev heard.(3));
  Alcotest.(check (list (pair int int))) "dead subscriber hears nothing" []
    heard.(4)

let test_perturb_fd_registration_order () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let engine, _ = make_echo_engine topo in
  let calls = ref [] in
  List.iter
    (fun (pid, k) ->
      (Engine.services engine pid).Services.on_fd_perturb (fun s ->
          calls := (k, s) :: !calls))
    [ (2, "p2"); (0, "p0"); (1, "p1"); (2, "p2'") ];
  Engine.schedule_crash engine ~at:(Sim_time.of_ms 1) 0;
  Engine.at engine (Sim_time.of_ms 2) (fun () -> Engine.perturb_fd engine 0.5);
  Engine.run engine;
  Alcotest.(check (list (pair string (float 0.))))
    "live subscribers, registration order"
    [ ("p2", 0.5); ("p1", 0.5); ("p2'", 0.5) ]
    (List.rev !calls)

(* Regression: a message arriving at a pid that never spawned a node must
   be a no-op — no Lamport advance, no Receive trace entry. *)
let test_delivery_to_nodeless_pid () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let engine = Engine.create ~latency:Util.crisp_latency ~tag topo in
  ignore
    (Engine.spawn engine 0 (fun _ ->
         ((), { Engine.on_receive = (fun ~src:_ _ -> ()) })));
  let s0 = Engine.services engine 0 in
  Engine.at engine (Sim_time.of_ms 1) (fun () -> s0.Services.send ~dst:1 Ping);
  Engine.run engine;
  Alcotest.(check int) "node-less clock untouched" 0 (Engine.lc engine 1);
  let receives =
    List.filter
      (function Trace.Receive _ -> true | _ -> false)
      (Trace.entries (Engine.trace engine))
  in
  Alcotest.(check int) "no Receive recorded" 0 (List.length receives)

(* Links are not FIFO: under latency jitter two sends on one inter-group
   link may arrive in reverse order. Pins a seed where they do. *)
let test_link_not_fifo () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let engine =
    Engine.create ~seed:0 ~latency:Net.Latency.wan_default ~tag:string_of_int
      topo
  in
  let got = ref [] in
  List.iter
    (fun pid ->
      Engine.spawn engine pid (fun _ ->
          ((), { Engine.on_receive = (fun ~src:_ w -> got := w :: !got) })))
    (Topology.all_pids topo);
  let s0 = Engine.services engine 0 in
  Engine.at engine (Sim_time.of_ms 1) (fun () ->
      s0.Services.send ~dst:1 1;
      s0.Services.send ~dst:1 2);
  Engine.run engine;
  Alcotest.(check (list int)) "second send arrives first" [ 2; 1 ]
    (List.rev !got)

let test_trace_records_events () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let engine, _ = make_echo_engine topo in
  let s0 = Engine.services engine 0 in
  let id = Msg_id.make ~origin:0 ~seq:0 in
  (* The entry a recording appends carries the clock the engine holds
     right after it. *)
  let record what record pid =
    record engine pid id;
    match Trace.entries_rev (Engine.trace engine) with
    | (Trace.Cast { pid = p; lc; _ } | Trace.Deliver { pid = p; lc; _ }) :: _
      when p = pid ->
      Alcotest.(check int) what (Engine.lc engine pid) lc
    | _ -> Alcotest.failf "%s: no entry recorded" what
  in
  Engine.at engine (Sim_time.of_ms 1) (fun () ->
      record "cast lc" Engine.record_cast 0;
      s0.Services.send ~dst:1 Ping);
  (* p1 delivers after the inter-group ping moved its clock to 1. *)
  Engine.at engine (Sim_time.of_ms 500) (fun () ->
      record "deliver lc" Engine.record_deliver 1);
  Engine.run engine;
  let entries = Trace.entries (Engine.trace engine) in
  let has p = List.exists p entries in
  Alcotest.(check bool) "cast recorded" true
    (has (function Trace.Cast { pid = 0; lc = 0; _ } -> true | _ -> false));
  Alcotest.(check bool) "deliver recorded" true
    (has (function Trace.Deliver { pid = 1; lc = 1; _ } -> true | _ -> false));
  Alcotest.(check bool) "send recorded with tag" true
    (has (function
      | Trace.Send { tag = "ping"; inter_group = true; _ } -> true
      | _ -> false));
  Alcotest.(check bool) "receive recorded" true
    (has (function Trace.Receive _ -> true | _ -> false))

let test_engine_determinism () =
  let run_once () =
    let topo = Topology.symmetric ~groups:2 ~per_group:2 in
    let engine, received =
      let e = Engine.create ~seed:33 ~latency:Net.Latency.wan_default ~tag
          topo in
      let received = ref [] in
      List.iter
        (fun pid ->
          Engine.spawn e pid (fun services ->
              ( (),
                {
                  Engine.on_receive =
                    (fun ~src w ->
                      received := (pid, src, tag w) :: !received;
                      match w with
                      | Ping -> services.Services.send ~dst:src Pong
                      | Pong -> ());
                } )))
        (Topology.all_pids topo);
      (e, received)
    in
    let s0 = Engine.services engine 0 in
    Engine.at engine (Sim_time.of_ms 1) (fun () ->
        List.iter (fun dst -> s0.Services.send ~dst Ping) [ 1; 2; 3 ]);
    Engine.run engine;
    (List.rev !received, Sim_time.to_us (Engine.now engine))
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_msg_id_order () =
  let a = Msg_id.make ~origin:1 ~seq:5 in
  let b = Msg_id.make ~origin:1 ~seq:6 in
  let c = Msg_id.make ~origin:2 ~seq:0 in
  Alcotest.(check bool) "seq order" true (Msg_id.compare a b < 0);
  Alcotest.(check bool) "origin dominates" true (Msg_id.compare b c < 0);
  Alcotest.(check bool) "equal" true (Msg_id.equal a (Msg_id.make ~origin:1 ~seq:5))

(* Msg_id.Tbl vs Stdlib's Hashtbl.Make over the same hash, under random
   add/replace/remove/probe schedules long enough to double the buckets
   several times (a resize happens past twice the bucket count), with an
   occasional reset. Probes, lengths and the iter and fold orders must
   agree after every step: protocols that walk a table re-send in that
   order, so the walk order is part of the contract. *)
module Ref_tbl = Hashtbl.Make (struct
  type t = Msg_id.t

  let equal = Msg_id.equal
  let hash (id : Msg_id.t) = (id.origin * 1_000_003) + id.seq
end)

type tbl_op =
  | Add of Msg_id.t * int
  | Replace of Msg_id.t * int
  | Remove of Msg_id.t
  | Probe of Msg_id.t
  | Reset

let tbl_ops_gen =
  QCheck2.Gen.(
    let id =
      map2
        (fun origin seq -> Msg_id.make ~origin ~seq)
        (int_bound 15) (int_bound 120)
    in
    list_size (int_range 0 700)
      (frequency
         [
           (6, map2 (fun k v -> Add (k, v)) id (int_bound 1000));
           (6, map2 (fun k v -> Replace (k, v)) id (int_bound 1000));
           (3, map (fun k -> Remove k) id);
           (3, map (fun k -> Probe k) id);
           (1, return Reset);
         ]))

let prop_tbl_matches_hashtbl ops =
  let t = Msg_id.Tbl.create 0 and model = Ref_tbl.create 0 in
  let walk iter tbl =
    let acc = ref [] in
    iter (fun k v -> acc := (k, v) :: !acc) tbl;
    !acc
  in
  List.iter
    (fun op ->
      let key =
        match op with
        | Add (k, v) ->
          Msg_id.Tbl.add t k v;
          Ref_tbl.add model k v;
          Some k
        | Replace (k, v) ->
          Msg_id.Tbl.replace t k v;
          Ref_tbl.replace model k v;
          Some k
        | Remove k ->
          Msg_id.Tbl.remove t k;
          Ref_tbl.remove model k;
          Some k
        | Probe k -> Some k
        | Reset ->
          Msg_id.Tbl.reset t;
          Ref_tbl.reset model;
          None
      in
      Option.iter
        (fun k ->
          if Msg_id.Tbl.find_opt t k <> Ref_tbl.find_opt model k then
            QCheck2.Test.fail_reportf "find_opt %s disagrees"
              (Msg_id.to_string k);
          if Msg_id.Tbl.mem t k <> Ref_tbl.mem model k then
            QCheck2.Test.fail_reportf "mem %s disagrees" (Msg_id.to_string k))
        key;
      if Msg_id.Tbl.length t <> Ref_tbl.length model then
        QCheck2.Test.fail_reportf "length %d <> model %d" (Msg_id.Tbl.length t)
          (Ref_tbl.length model);
      let walked = walk Msg_id.Tbl.iter t in
      if walked <> walk Ref_tbl.iter model then
        QCheck2.Test.fail_reportf "iter order disagrees";
      let folded tbl_fold tbl = tbl_fold (fun k v acc -> (k, v) :: acc) tbl [] in
      if folded Msg_id.Tbl.fold t <> walked
         || folded Ref_tbl.fold model <> walked
      then QCheck2.Test.fail_reportf "fold order disagrees")
    ops;
  true

(* [find_or] against [find_opt] on the same schedules: the sentinel
   lookup returns the bound value, and [default] exactly when [find_opt]
   says [None]. Bound values are never negative, so [-1] is a safe
   default. *)
let prop_find_or_is_find_opt ops =
  let t = Msg_id.Tbl.create 0 in
  List.for_all
    (fun op ->
      let key =
        match op with
        | Add (k, v) ->
          Msg_id.Tbl.add t k v;
          Some k
        | Replace (k, v) ->
          Msg_id.Tbl.replace t k v;
          Some k
        | Remove k ->
          Msg_id.Tbl.remove t k;
          Some k
        | Probe k -> Some k
        | Reset ->
          Msg_id.Tbl.reset t;
          None
      in
      match key with
      | None -> true
      | Some k ->
        Msg_id.Tbl.find_or t k ~default:(-1)
        = Option.value ~default:(-1) (Msg_id.Tbl.find_opt t k))
    ops

let suites =
  [
    ( "runtime",
      [
        Alcotest.test_case "echo end-to-end" `Quick test_engine_echo;
        Alcotest.test_case "modified Lamport rules" `Quick test_lamport_rules;
        Alcotest.test_case "crash stops process" `Quick
          test_crash_stops_process;
        Alcotest.test_case "crash loses in-flight" `Quick
          test_crash_lose_inflight;
        Alcotest.test_case "crash loses to subset" `Quick
          test_crash_lose_to_subset;
        Alcotest.test_case "timers fire and cancel" `Quick
          test_timer_fires_and_cancels;
        Alcotest.test_case "timers inert after crash" `Quick
          test_timer_inert_after_crash;
        Alcotest.test_case "crash detection subscription" `Quick
          test_crash_detection_subscription;
        Alcotest.test_case "crash notification skips dead subscriber" `Quick
          test_crash_notification_skips_dead_subscriber;
        Alcotest.test_case "late subscriber hears the dead in pid order"
          `Quick test_late_subscription_reports_dead_ascending;
        Alcotest.test_case "perturb_fd walks registration order" `Quick
          test_perturb_fd_registration_order;
        Alcotest.test_case "delivery to node-less pid is a no-op" `Quick
          test_delivery_to_nodeless_pid;
        Alcotest.test_case "links are not FIFO" `Quick test_link_not_fifo;
        Alcotest.test_case "trace records events" `Quick
          test_trace_records_events;
        Alcotest.test_case "determinism" `Quick test_engine_determinism;
        Alcotest.test_case "msg id order" `Quick test_msg_id_order;
        Util.qcheck_case ~count:100
          ~name:"Msg_id.Tbl matches Hashtbl.Make, walk order included"
          tbl_ops_gen prop_tbl_matches_hashtbl;
        Util.qcheck_case ~count:100 ~name:"Msg_id.Tbl.find_or = find_opt"
          tbl_ops_gen prop_find_or_is_find_opt;
      ] );
  ]
