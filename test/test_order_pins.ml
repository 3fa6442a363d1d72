(* Delivery-order pins for A2 and ring.

   Golden pin: fixed-seed jittered streams of ~40 casts through a2 (under
   the default, throughput and heartbeat configurations, and with a
   group's leader crashing mid-run) and ring (a jittered stream and a
   crash stream), each reduced to a per-pid delivery digest and per-tag
   send counts. The checkers and the soak goldens see only verdicts and
   aggregate counts; these literals fix the exact delivery order and
   message pattern, so a refactor of the group stack or of ring's
   delivery test that moves one delivery or one send fails here. *)

open Des
open Net

let stream ~dest topo =
  Harness.Workload.generate ~rng:(Rng.create 23) ~topology:topo ~n:40 ~dest
    ~arrival:(`Poisson (Sim_time.of_ms 8))
    ()

let broadcast = stream ~dest:Harness.Workload.To_all_groups

let multicast topo =
  stream ~dest:(Harness.Workload.Random_groups (Topology.n_groups topo)) topo

module RA2 = Harness.Runner.Make (Amcast.A2)
module RRing = Harness.Runner.Make (Amcast.Ring)

let heartbeat =
  {
    Amcast.Protocol.Config.default with
    fd_mode =
      Amcast.Protocol.Config.Heartbeat
        { period = Sim_time.of_ms 20; timeout = Sim_time.of_ms 100 };
  }

(* Three groups of three, so a group keeps a majority after the crash of
   its leader (pid 3, the first member of group 1) mid-stream. *)
let crash_topo = Topology.symmetric ~groups:3 ~per_group:3
let crash_faults = [ Harness.Runner.crash ~at:(Sim_time.of_ms 150) 3 ]

let golden_runs () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let a2 name config =
    ( name,
      RA2.run ~seed:7 ~latency:Latency.wan_default ~config topo (broadcast topo)
    )
  in
  [
    a2 "a2 default" Amcast.Protocol.Config.default;
    a2 "a2 throughput" Amcast.Protocol.Config.throughput;
    ( "a2 heartbeat",
      RA2.run ~seed:7 ~latency:Latency.wan_default ~config:heartbeat
        ~until:(Sim_time.of_sec 3.) topo (broadcast topo) );
    ( "a2 leader crash",
      RA2.run ~seed:7 ~latency:Latency.wan_default ~faults:crash_faults
        crash_topo (broadcast crash_topo) );
    ( "ring",
      RRing.run ~seed:7 ~latency:Latency.wan_default topo (multicast topo) );
    ( "ring crash",
      RRing.run ~seed:7 ~latency:Latency.wan_default ~faults:crash_faults
        crash_topo (multicast crash_topo) );
  ]

let golden : (string * (int list * (string * int) list)) list =
  [
    ( "a2 default",
      ( [
          2630862101107249621; 2630862101107249621; 2630862101107249621;
          2630862101107249621; 2630862101107249621; 2630862101107249621
        ],
        [
          ("a2.bundle", 192); ("cons.accept", 48); ("cons.accepted", 48);
          ("cons.decide", 55); ("cons.suggest", 24); ("rm.data", 40)
        ] ) );
    ( "a2 throughput",
      ( [
          2668925444885574061; 2668925444885574061; 2668925444885574061;
          2668925444885574061; 2668925444885574061; 2668925444885574061
        ],
        [
          ("a2.bundle", 264); ("cons.accept", 66); ("cons.accepted", 66);
          ("cons.decide", 75); ("cons.suggest", 32); ("rm.data", 39)
        ] ) );
    ( "a2 heartbeat",
      ( [
          3302171524134580493; 3302171524134580493; 3302171524134580493;
          3302171524134580493; 3302171524134580493; 3302171524134580493
        ],
        [
          ("a2.bundle", 192); ("cons.accept", 48); ("cons.accepted", 48);
          ("cons.decide", 55); ("cons.suggest", 23); ("fd.ping", 906);
          ("rm.data", 40)
        ] ) );
    ( "a2 leader crash",
      ( [
          2867573217461129977; 2867573217461129977; 2867573217461129977;
          562658088337308326; 2867573217461129977; 2867573217461129977;
          2867573217461129977; 2867573217461129977; 2867573217461129977
        ],
        [
          ("a2.bundle", 348); ("cons.accept", 63); ("cons.accepted", 58);
          ("cons.decide", 69); ("cons.lease_prepare", 2);
          ("cons.lease_promise", 1); ("cons.suggest", 39); ("rm.data", 76)
        ] ) );
    ( "ring",
      ( [
          1120513754192514564; 1120513754192514564; 877187584192763416;
          877187584192763416; 1835635836142686580; 1835635836142686580
        ],
        [
          ("cons.accept", 158); ("cons.accepted", 316); ("cons.decide", 316);
          ("cons.suggest", 67); ("ring.final", 236); ("ring.handoff", 156);
          ("rm.data", 73)
        ] ) );
    ( "ring crash",
      ( [
          1099170760000080324; 1099170760000080324; 1099170760000080324;
          18691697679587; 4610364898975023747; 4610364898975023747;
          4176029561237142984; 4176029561237142984; 4176029561237142984
        ],
        [
          ("cons.accept", 216); ("cons.accepted", 585); ("cons.decide", 585);
          ("cons.lease_prepare", 2); ("cons.lease_promise", 1);
          ("cons.suggest", 122); ("ring.final", 509); ("ring.handoff", 276);
          ("rm.data", 126)
        ] ) );
  ]

let test_golden () =
  List.iter
    (fun (name, r) ->
      Test_stamp_order.check_golden golden name (Harness.Checker.check_all r) r)
    (golden_runs ())

(* Ring's delivery instants, per message in cast order: the sum over its
   deliveries of the virtual time in us. The digests above fix the order
   only; a delivery held back behind a stale, too-low key of a message
   whose stamp is not final yet (ring's [get_pending] not repositioning
   the entry when [known_ts] rises) keeps every order and every verdict
   and moves only these instants — on this run, p0's deliveries by about
   100 ms. *)
let golden_ring_times =
  [
    2410246; 10460625; 13505368; 15130301; 16732401; 2412750; 17694878;
    13036604; 18648078; 359262; 15274834; 2728104; 15592832; 431135;
    2412750; 16546537; 19605243; 2412750; 24376888; 15913953; 578712;
    3706065; 16229137; 4026897; 16867739; 26940369; 27909307; 25333568;
    10460625; 28880752; 19914254; 18138224; 20230171; 716488; 20552393;
    4344954; 10460625; 2412750; 20974402; 843081;
  ]

let test_ring_times () =
  let r =
    RRing.run ~seed:7 ~latency:Latency.wan_default crash_topo
      (multicast crash_topo)
  in
  Util.check_no_violations "ring clean" (Harness.Checker.check_all r);
  let instants (c : Harness.Run_result.cast_event) =
    List.fold_left
      (fun s (d : Harness.Run_result.delivery_event) -> s + Sim_time.to_us d.at)
      0
      (Harness.Run_result.deliveries_of r c.msg.id)
  in
  Alcotest.(check (list int))
    "per-message delivery instants" golden_ring_times
    (List.map instants r.casts)

let suites =
  [
    ( "order-pins",
      [
        Alcotest.test_case "golden pin: a2, ring" `Quick test_golden;
        Alcotest.test_case "ring delivery instants" `Quick test_ring_times;
      ] );
  ]
