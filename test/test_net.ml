open Net
open Des

let test_topology_basics () =
  let t = Topology.make ~sizes:[ 2; 3; 1 ] in
  Alcotest.(check int) "n" 6 (Topology.n_processes t);
  Alcotest.(check int) "groups" 3 (Topology.n_groups t);
  Alcotest.(check (list int)) "g0" [ 0; 1 ] (Topology.members t 0);
  Alcotest.(check (list int)) "g1" [ 2; 3; 4 ] (Topology.members t 1);
  Alcotest.(check (list int)) "g2" [ 5 ] (Topology.members t 2);
  Alcotest.(check int) "group_of 3" 1 (Topology.group_of t 3);
  Alcotest.(check bool) "same group" true (Topology.same_group t 2 4);
  Alcotest.(check bool) "different group" false (Topology.same_group t 1 2);
  Alcotest.(check (list int)) "pids_of_groups dedup" [ 0; 1; 5 ]
    (Topology.pids_of_groups t [ 2; 0; 0 ])

let test_topology_invalid () =
  Alcotest.check_raises "empty group"
    (Invalid_argument "Topology.make: empty group") (fun () ->
      ignore (Topology.make ~sizes:[ 2; 0 ]));
  Alcotest.check_raises "no groups" (Invalid_argument "Topology.make: no groups")
    (fun () -> ignore (Topology.make ~sizes:[]))

let test_latency_asymmetry () =
  let t = Topology.symmetric ~groups:2 ~per_group:2 in
  ignore t;
  let rng = Rng.create 0 in
  let lat = Util.crisp_latency in
  Alcotest.(check int) "intra" 1_000
    (Sim_time.to_us (Latency.sample lat rng ~src_group:0 ~dst_group:0));
  Alcotest.(check int) "inter" 50_000
    (Sim_time.to_us (Latency.sample lat rng ~src_group:0 ~dst_group:1))

let test_latency_matrix () =
  let inter =
    [|
      [| Sim_time.zero; Sim_time.of_ms 80 |];
      [| Sim_time.of_ms 120; Sim_time.zero |];
    |]
  in
  let lat = Latency.matrix ~intra:(Sim_time.of_ms 1) ~inter () in
  Alcotest.(check int) "asymmetric 0->1" 80_000
    (Sim_time.to_us (Latency.base lat ~src_group:0 ~dst_group:1));
  Alcotest.(check int) "asymmetric 1->0" 120_000
    (Sim_time.to_us (Latency.base lat ~src_group:1 ~dst_group:0));
  Alcotest.(check int) "intra" 1_000
    (Sim_time.to_us (Latency.base lat ~src_group:0 ~dst_group:0))

let test_latency_jitter_bounds () =
  let lat =
    Latency.uniform ~intra:(Sim_time.of_ms 1) ~inter:(Sim_time.of_ms 50)
      ~inter_jitter:(Sim_time.of_ms 5) ()
  in
  let rng = Rng.create 9 in
  for _ = 1 to 500 do
    let d = Sim_time.to_us (Latency.sample lat rng ~src_group:0 ~dst_group:1) in
    if d < 50_000 || d >= 55_000 then Alcotest.failf "jitter out of range: %d" d
  done

let make_net ?(latency = Util.crisp_latency) topology =
  let sched = Scheduler.create () in
  let rng = Rng.create 1 in
  let received = ref [] in
  let net =
    Network.create ~sched ~topology ~latency ~rng
      ~deliver:(fun ~src ~dst ~lc:_ ~env:_ payload ->
        received := (src, dst, payload, Scheduler.now sched) :: !received)
  in
  (sched, net, received)

let test_network_delivers () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let sched, net, received = make_net topo in
  Network.send net ~src:0 ~dst:1 ~lc:0 ~env:0 "local";
  Network.send net ~src:0 ~dst:2 ~lc:0 ~env:0 "remote";
  Scheduler.run sched;
  let r = List.rev !received in
  (match r with
  | [ (0, 1, "local", t1); (0, 2, "remote", t2) ] ->
    Alcotest.(check int) "intra delay" 1_000 (Sim_time.to_us t1);
    Alcotest.(check int) "inter delay" 50_000 (Sim_time.to_us t2)
  | _ -> Alcotest.fail "unexpected deliveries");
  Alcotest.(check int) "total" 2 (Network.sent_total net);
  Alcotest.(check int) "inter" 1 (Network.sent_inter_group net);
  Alcotest.(check int) "intra" 1 (Network.sent_intra_group net)

let test_network_hold () =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let sched, net, received = make_net topo in
  Network.send net ~src:0 ~dst:1 ~lc:0 ~env:0 "early";
  Network.hold net ~src_group:0 ~dst_group:1 ~until:(Sim_time.of_ms 500);
  Network.send net ~src:0 ~dst:1 ~lc:0 ~env:0 "late";
  Scheduler.run sched;
  List.iter
    (fun (_, _, _, t) ->
      if Sim_time.compare t (Sim_time.of_ms 500) < 0 then
        Alcotest.failf "delivered before hold expired: %a" Sim_time.pp t)
    !received;
  Alcotest.(check int) "both delivered" 2 (List.length !received)

let test_network_drop_inflight () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let sched, net, received = make_net topo in
  Network.send net ~src:0 ~dst:2 ~lc:0 ~env:0 "a";
  Network.send net ~src:0 ~dst:3 ~lc:0 ~env:0 "b";
  Network.send net ~src:1 ~dst:2 ~lc:0 ~env:0 "c";
  let dropped = Network.drop_inflight net (fun ~src ~dst:_ -> src = 0) in
  Alcotest.(check int) "dropped count" 2 dropped;
  Scheduler.run sched;
  (match !received with
  | [ (1, 2, "c", _) ] -> ()
  | _ -> Alcotest.fail "only p1's message should survive");
  Alcotest.(check int) "in flight drained" 0 (Network.in_flight net)

(* ------------------------------------------------------------------ *)
(* Network controls vs the scan-based twin ([Naive_network]). Random
   interleavings of fan-outs, holds, partitions, heals, latency scales and
   the three crash-drop predicates (every message of a sender, the
   messages to chosen victims, each message with probability 1/2, drawn
   per match in slot order) run on both networks, with fan-outs both
   shaped as one self-re-arming event and exploded into one event per
   destination. Deliveries answer some messages with fan-outs of their
   own, so slots are released and reused from inside deliveries. A
   one-destination send goes through [send], the twin's one-element
   [send_multi]. The delivery sequences (time, src, dst, the carried
   [lc] and [env], payload), the drop counts and the send counters must
   agree. Crisp latencies make equal arrival times common, so the order
   messages are re-scheduled in is visible. *)

module type NET = sig
  type 'w t

  val create :
    sched:Scheduler.t ->
    topology:Topology.t ->
    latency:Latency.t ->
    rng:Rng.t ->
    deliver:
      (src:Topology.pid -> dst:Topology.pid -> lc:int -> env:int -> 'w -> unit) ->
    'w t

  val send :
    'w t -> src:Topology.pid -> dst:Topology.pid -> lc:int -> env:int -> 'w ->
    unit

  val send_multi :
    'w t -> src:Topology.pid -> dsts:Topology.pid list -> lc:int -> env:int ->
    'w -> unit
  val hold : 'w t -> src_group:int -> dst_group:int -> until:Sim_time.t -> unit
  val heal : 'w t -> src_group:int -> dst_group:int -> unit
  val partition_groups : 'w t -> int list -> int list -> unit
  val heal_all : 'w t -> unit
  val latency_scale : 'w t -> src_group:int -> dst_group:int -> float -> unit
  val drop_inflight :
    'w t -> (src:Topology.pid -> dst:Topology.pid -> bool) -> int
  val set_explode_fanout : 'w t -> bool -> unit
  val sent_total : 'w t -> int
  val sent_inter_group : 'w t -> int
  val in_flight : 'w t -> int
end

(* The scan-based twin carries [lc] and [env] inside its payload. *)
module Naive_stamped = struct
  module N = Naive_network

  type 'w t = (int * int * 'w) N.t

  let create ~sched ~topology ~latency ~rng ~deliver =
    N.create ~sched ~topology ~latency ~rng
      ~deliver:(fun ~src ~dst (lc, env, w) -> deliver ~src ~dst ~lc ~env w)

  let send_multi t ~src ~dsts ~lc ~env w = N.send_multi t ~src ~dsts (lc, env, w)
  let send t ~src ~dst ~lc ~env w = send_multi t ~src ~dsts:[ dst ] ~lc ~env w
  let hold = N.hold
  let heal = N.heal
  let partition_groups = N.partition_groups
  let heal_all = N.heal_all
  let latency_scale = N.latency_scale
  let drop_inflight = N.drop_inflight
  let set_explode_fanout = N.set_explode_fanout
  let sent_total = N.sent_total
  let sent_inter_group = N.sent_inter_group
  let in_flight = N.in_flight
end

type net_op =
  | Send of int * int list
  | Hold of int * int * int
  | Partition of int list * int list
  | Heal of int * int
  | Heal_all
  | Scale of int * int * float
  | Drop_all of int
  | Drop_to of int * int list
  | Drop_each of int
  | Advance of int

let show_net_op =
  let ints l = String.concat ";" (List.map string_of_int l) in
  function
  | Send (s, d) -> Printf.sprintf "Send (%d, [%s])" s (ints d)
  | Hold (a, b, ms) -> Printf.sprintf "Hold (%d, %d, %d)" a b ms
  | Partition (a, b) ->
    Printf.sprintf "Partition ([%s], [%s])" (ints a) (ints b)
  | Heal (a, b) -> Printf.sprintf "Heal (%d, %d)" a b
  | Heal_all -> "Heal_all"
  | Scale (a, b, f) -> Printf.sprintf "Scale (%d, %d, %g)" a b f
  | Drop_all p -> Printf.sprintf "Drop_all %d" p
  | Drop_to (p, v) -> Printf.sprintf "Drop_to (%d, [%s])" p (ints v)
  | Drop_each p -> Printf.sprintf "Drop_each %d" p
  | Advance ms -> Printf.sprintf "Advance %d" ms

let net_groups = 3
let net_pids = 6

let net_op_gen =
  QCheck2.Gen.(
    let pid = int_bound (net_pids - 1) and g = int_bound (net_groups - 1) in
    frequency
      [
        (8, map2 (fun s d -> Send (s, d)) pid (list_size (int_range 1 6) pid));
        (2, map3 (fun a b ms -> Hold (a, b, ms)) g g (int_bound 300));
        ( 1,
          map (fun a -> Partition ([ a ], List.filter (( <> ) a) [ 0; 1; 2 ])) g
        );
        (2, map2 (fun a b -> Heal (a, b)) g g);
        (1, pure Heal_all);
        (1, map3 (fun a b f -> Scale (a, b, f)) g g (oneofl [ 0.5; 1.0; 3.0 ]));
        (1, map (fun p -> Drop_all p) pid);
        ( 1,
          map2 (fun p v -> Drop_to (p, v)) pid (list_size (int_range 1 3) pid)
        );
        (1, map (fun p -> Drop_each p) pid);
        (4, map (fun ms -> Advance ms) (int_bound 120));
      ])

(* Runs [ops] on network implementation [N]; returns the deliveries in
   order, the drop counts and the final counters. *)
let run_net (module N : NET) ~crisp ~explode ops =
  let topology = Topology.symmetric ~groups:net_groups ~per_group:2 in
  let latency =
    if crisp then Util.crisp_latency
    else
      Latency.uniform ~intra_jitter:(Sim_time.of_ms 2)
        ~inter_jitter:(Sim_time.of_ms 30) ~intra:(Sim_time.of_ms 1)
        ~inter:(Sim_time.of_ms 50) ()
  in
  let sched = Scheduler.create () in
  let log = ref [] in
  let net = ref None in
  let deliver ~src ~dst ~lc ~env payload =
    log :=
      (Sim_time.to_us (Scheduler.now sched), src, dst, (lc, env, payload))
      :: !log;
    if payload < 1000 && payload mod 4 = 0 then
      N.send_multi (Option.get !net) ~src:dst
        ~dsts:[ src; (dst + 1) mod net_pids ]
        ~lc:(payload + 1) ~env:(-payload) (payload + 1000)
  in
  let n = N.create ~sched ~topology ~latency ~rng:(Rng.create 11) ~deliver in
  net := Some n;
  N.set_explode_fanout n explode;
  let fault_rng = Rng.create 5 in
  let drops = ref [] in
  let drop pred = drops := N.drop_inflight n pred :: !drops in
  List.iteri
    (fun k op ->
      match op with
      | Send (src, [ dst ]) -> N.send n ~src ~dst ~lc:(k * 3) ~env:(k + 7) k
      | Send (src, dsts) -> N.send_multi n ~src ~dsts ~lc:(k * 3) ~env:(k + 7) k
      | Hold (a, b, ms) ->
        N.hold n ~src_group:a ~dst_group:b
          ~until:(Sim_time.add (Scheduler.now sched) (Sim_time.of_ms ms))
      | Partition (a, b) -> N.partition_groups n a b
      | Heal (a, b) -> N.heal n ~src_group:a ~dst_group:b
      | Heal_all -> N.heal_all n
      | Scale (a, b, f) -> N.latency_scale n ~src_group:a ~dst_group:b f
      | Drop_all p -> drop (fun ~src ~dst:_ -> src = p)
      | Drop_to (p, v) -> drop (fun ~src ~dst -> src = p && List.mem dst v)
      | Drop_each p ->
        drop (fun ~src ~dst:_ -> src = p && Rng.float fault_rng 1.0 < 0.5)
      | Advance ms ->
        Scheduler.run
          ~until:(Sim_time.add (Scheduler.now sched) (Sim_time.of_ms ms))
          sched)
    ops;
  N.heal_all n;
  Scheduler.run sched;
  (List.rev !log, List.rev !drops, N.sent_total n, N.sent_inter_group n,
   N.in_flight n)

let prop_network_controls_match_scan =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"network controls = scan-based twin"
       ~print:QCheck2.Print.(triple bool bool (list show_net_op))
       QCheck2.Gen.(triple bool bool (list_size (int_range 1 80) net_op_gen))
       (fun (crisp, explode, ops) ->
         let real = run_net (module Network) ~crisp ~explode ops
         and naive = run_net (module Naive_stamped) ~crisp ~explode ops in
         let log, _, _, _, left = real in
         if real <> naive then
           QCheck2.Test.fail_reportf "diverged (%d deliveries)"
             (List.length log)
         else left = 0))

let suites =
  [
    ( "net",
      [
        Alcotest.test_case "topology basics" `Quick test_topology_basics;
        Alcotest.test_case "topology invalid" `Quick test_topology_invalid;
        Alcotest.test_case "latency asymmetry" `Quick test_latency_asymmetry;
        Alcotest.test_case "latency matrix" `Quick test_latency_matrix;
        Alcotest.test_case "latency jitter bounds" `Quick
          test_latency_jitter_bounds;
        Alcotest.test_case "network delivers" `Quick test_network_delivers;
        Alcotest.test_case "network hold" `Quick test_network_hold;
        Alcotest.test_case "network drop inflight" `Quick
          test_network_drop_inflight;
        prop_network_controls_match_scan;
      ] );
  ]
