(* The Skeen stamp kernel and the protocols built on it.

   Golden pin: fixed-seed jittered streams of ~40 casts through skeen,
   generic (two conflict relations), flexcast (three overlays) and
   scalable, each reduced to a per-pid delivery digest and per-tag send
   counts. The literals were captured from the per-protocol
   implementations that preceded the shared kernel; the differentials
   elsewhere (generic-at-Total = skeen, flexcast-on-clique = skeen) compare
   kernel against kernel and cannot see a behaviour change they share. *)

open Des
open Net

(* Per-pid version of [Mc.Explorer.digest] (same mixing step): one
   order-sensitive hash of each process's delivery sequence. *)
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

(* Every send in the trace (intra- and inter-group), counted per tag. *)
let sends_by_tag (r : Harness.Run_result.t) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (function
      | Runtime.Trace.Send { tag; _ } ->
        Hashtbl.replace tbl tag
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl tag))
      | _ -> ())
    (Runtime.Trace.entries r.trace);
  Hashtbl.fold (fun tag n acc -> (tag, n) :: acc) tbl []
  |> List.sort compare

(* A golden row: the run is clean and its per-pid digests and per-tag
   sends equal the literals recorded under [name]. *)
let check_golden golden name violations r =
  Util.check_no_violations (name ^ " clean") violations;
  match List.assoc_opt name golden with
  | None -> Alcotest.failf "%s: no golden entry" name
  | Some (d, s) ->
    Alcotest.(check (list int)) (name ^ " per-pid digests") d (pid_digests r);
    Alcotest.(check (list (pair string int)))
      (name ^ " sends per tag") s (sends_by_tag r)

let stream ?conflict topo =
  Harness.Workload.generate ~rng:(Rng.create 23) ~topology:topo ~n:40
    ~dest:(Harness.Workload.Random_groups (Topology.n_groups topo))
    ~arrival:(`Poisson (Sim_time.of_ms 8))
    ?conflict ()

module RSk = Harness.Runner.Make (Amcast.Skeen)
module RG = Harness.Runner.Make (Amcast.Generic)
module RFx = Harness.Runner.Make (Amcast.Flexcast)
module RSc = Harness.Runner.Make (Amcast.Scalable)

let keyed_stream topo =
  stream ~conflict:(Harness.Workload.conflict_spec ~keys:3 0.6) topo

let golden_runs () =
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let topo4 = Topology.symmetric ~groups:4 ~per_group:2 in
  let flex name kind ~clean =
    let ov = Overlay.of_kind kind ~groups:4 in
    ( name,
      Amcast.Conflict.total,
      Util.within_budget ~clean (fun ~max_steps ->
          RFx.run ~seed:7
            ~latency:(Overlay.to_latency ~jitter:(Sim_time.of_ms 4) ov)
            ~config:{ Amcast.Protocol.Config.default with overlay = Some ov }
            ~max_steps topo4 (stream topo4)) )
  in
  let generic name conflict w ~clean =
    ( name,
      conflict,
      Util.within_budget ~clean (fun ~max_steps ->
          RG.run ~seed:7 ~latency:Latency.wan_default
            ~config:{ Amcast.Protocol.Config.default with conflict }
            ~max_steps topo w) )
  in
  [
    ( "skeen",
      Amcast.Conflict.total,
      Util.within_budget ~clean:733 (fun ~max_steps ->
          RSk.run ~seed:7 ~latency:Latency.wan_default ~max_steps topo
            (stream topo)) );
    generic "generic total" Amcast.Conflict.total (stream topo) ~clean:733;
    generic "generic payload_key" Amcast.Conflict.payload_key
      (keyed_stream topo) ~clean:590;
    flex "flexcast clique" Overlay.Clique ~clean:945;
    flex "flexcast hub" Overlay.Hub ~clean:1071;
    flex "flexcast ring" Overlay.Ring ~clean:1064;
    ( "scalable",
      Amcast.Conflict.total,
      Util.within_budget ~clean:2437 (fun ~max_steps ->
          RSc.run ~seed:7 ~latency:Latency.wan_default ~max_steps topo
            (stream topo)) );
  ]

let golden : (string * (int list * (string * int) list)) list =
  [
    ( "skeen",
      ( [
          3346461430148783076; 3346461430148783076; 2108408332423108000;
          2108408332423108000; 2941084383902733852; 2941084383902733852
        ],
        [ ("skeen.data", 135); ("skeen.stamp", 558) ] ) );
    ( "generic total",
      ( [
          3346461430148783076; 3346461430148783076; 2108408332423108000;
          2108408332423108000; 2941084383902733852; 2941084383902733852
        ],
        [ ("generic.data", 135); ("generic.stamp", 558) ] ) );
    ( "generic payload_key",
      ( [
          3250305048433958869; 3250305048433958869; 1363419290385792332;
          1363419290385792332; 184948037540007902; 4543740128308553462
        ],
        [ ("generic.data", 136); ("generic.stamp", 414) ] ) );
    ( "flexcast clique",
      ( [
          2089080943381054756; 2089080943381054756; 1030694252278449541;
          1030694252278449541; 4517032515193463448; 4517032515193463448;
          3194440050733877815; 3194440050733877815
        ],
        [ ("flexcast.data", 151); ("flexcast.stamp", 754) ] ) );
    ( "flexcast hub",
      ( [
          2924986306408375244; 2924986306408375244; 1769088115272884781;
          1769088115272884781; 4359908007968080440; 4359908007968080440;
          1837209297434482039; 1837209297434482039
        ],
        [
          ("flexcast.data", 151); ("flexcast.fwd", 22);
          ("flexcast.fwdstamp", 104); ("flexcast.stamp", 754)
        ] ) );
    ( "flexcast ring",
      ( [
          1625131687729948524; 1625131687729948524; 2693859871269751397;
          2693859871269751397; 1689761018481158520; 1689761018481158520;
          3931945616517770359; 3931945616517770359
        ],
        [
          ("flexcast.data", 151); ("flexcast.fwd", 19);
          ("flexcast.fwdstamp", 100); ("flexcast.stamp", 754)
        ] ) );
    ( "scalable",
      ( [
          3052359826110463268; 3052359826110463268; 625555723106652080;
          625555723106652080; 488111150257532740; 488111150257532740
        ],
        [
          ("cons.accept", 158); ("cons.accepted", 712); ("cons.decide", 716);
          ("cons.suggest", 118); ("rm.data", 135); ("scalable.stamp", 558)
        ] ) );
  ]

let test_golden () =
  List.iter
    (fun (name, conflict, r) ->
      check_golden golden name (Harness.Checker.check_all ~conflict r) r)
    (golden_runs ())

(* ----- the kernel, driven directly ----- *)

module K = Amcast.Stamp_order

(* A kernel at pid 0 of [groups] singleton groups; [delivered ()] is the
   deliver upcall sequence so far, oldest first. *)
let kernel groups =
  let log = ref [] in
  let k =
    K.create
      ~topology:(Topology.symmetric ~groups ~per_group:1)
      ~self:0
      ~deliver:(fun (m : Amcast.Msg.t) -> log := m.id :: !log)
  in
  (k, Amcast.Pending_index.create (), fun () -> List.rev !log)

let msg ~origin ~dest =
  Amcast.Msg.make ~id:(Runtime.Msg_id.make ~origin ~seq:0) ~dest "x"

let ids =
  Alcotest.(list (testable Runtime.Msg_id.pp Runtime.Msg_id.equal))
let stamp_opt = Alcotest.(option int)

let finalize_if_complete k e =
  Option.iter (K.finalize k e) (K.complete e)

let test_early_stamp_applied_at_admission () =
  let k, ord, delivered = kernel 2 in
  let m = msg ~origin:1 ~dest:[ 0; 1 ] in
  Alcotest.(check bool) "buffered, not pending" true
    (Option.is_none (K.stamp k m.id ~from:1 5));
  let e = K.admit k ~ord m () in
  Alcotest.(check int) "own stamp above the merged clock" 6 (K.own_ts e);
  Alcotest.check stamp_opt "early stamp counted" (Some 6) (K.complete e);
  Alcotest.check ids "admission does not deliver" [] (delivered ());
  finalize_if_complete k e;
  Alcotest.check ids "delivered once finalised" [ m.id ] (delivered ())

let test_duplicate_stamp_keeps_first () =
  let k, ord, _ = kernel 3 in
  let m = msg ~origin:0 ~dest:[ 0; 1; 2 ] in
  let e = K.admit k ~ord m () in
  ignore (K.stamp k m.id ~from:1 5);
  ignore (K.stamp k m.id ~from:1 9);
  Alcotest.check stamp_opt "a duplicate does not count" None (K.complete e);
  ignore (K.stamp k m.id ~from:2 3);
  Alcotest.check stamp_opt "max over first stamps" (Some 5) (K.complete e)

let test_stamp_after_delivery_dropped () =
  let k, ord, delivered = kernel 2 in
  let m = msg ~origin:0 ~dest:[ 0; 1 ] in
  ignore (K.admit k ~ord m ());
  Option.iter (finalize_if_complete k) (K.stamp k m.id ~from:1 2);
  Alcotest.check ids "delivered" [ m.id ] (delivered ());
  Alcotest.(check bool) "late stamp not recorded" true
    (Option.is_none (K.stamp k m.id ~from:1 4));
  Alcotest.(check bool) "no longer fresh" false (K.fresh k m.id);
  Alcotest.(check int) "nothing pending" 0 (K.pending_count k);
  (* Protocols never admit a delivered id; doing it here exposes the
     early-stamp buffer: had the late stamp been kept, it would count. *)
  let again = K.admit k ~ord m () in
  Alcotest.check stamp_opt "late stamp not buffered" None (K.complete again)

let test_unfinalised_blocks_and_ties_by_id () =
  let k, ord, delivered = kernel 2 in
  let b = msg ~origin:1 ~dest:[ 0; 1 ] and a = msg ~origin:0 ~dest:[ 0; 1 ] in
  let eb = K.admit k ~ord b () in
  let ea = K.admit k ~ord a () in
  K.finalize k eb 3;
  Alcotest.check ids "(3, b) waits behind unfinalised (2, a)" [] (delivered ());
  K.finalize k ea 3;
  Alcotest.check ids "equal finals deliver by id" [ a.id; b.id ] (delivered ())

(* Scalable's final stamp comes from a consensus, so it can exceed every
   stamp the process has merged; finalising must raise the clock to it. *)
let test_finalize_raises_clock () =
  let k, ord, delivered = kernel 2 in
  let m = msg ~origin:0 ~dest:[ 0; 1 ] in
  let e = K.admit k ~ord m () in
  K.finalize k e 7;
  Alcotest.check ids "delivered" [ m.id ] (delivered ());
  let e' = K.admit k ~ord (msg ~origin:1 ~dest:[ 0; 1 ]) () in
  Alcotest.(check int) "next own stamp above the final" 8 (K.own_ts e')

(* The same rule end to end. Four one-process groups; the links from p3
   and from p1 to p2 take 2 s, every other link 10 ms. p3 casts m1, m2
   and m3 to {p1, p2}; p0 then casts m to {p0, p1, p2}. p1 stamps them 1,
   2, 3 and m 4, so m's consensus decides 4, and p2 decides it at clock 2,
   before any stamp from p1 reaches it. Had p2's clock stayed there, m1
   would reach p2 stamped 3 and finalise at 3 < 4: p1 would deliver m1
   before m, p2 after. *)
let test_scalable_decided_final_raises_clock () =
  let ms = Sim_time.of_ms in
  let inter =
    Array.init 4 (fun src ->
        Array.init 4 (fun dst ->
            ms (if dst = 2 && (src = 3 || src = 1) then 2000 else 10)))
  in
  let latency = Latency.matrix ~intra:(ms 1) ~inter () in
  let cast at origin dest =
    { Harness.Workload.at = ms at; origin; dest; payload = "x" }
  in
  let r =
    Util.within_budget ~clean:286 (fun ~max_steps ->
        RSc.run ~seed:1 ~latency ~max_steps
          (Topology.symmetric ~groups:4 ~per_group:1)
          [
            cast 0 3 [ 1; 2 ]; cast 0 3 [ 1; 2 ]; cast 0 3 [ 1; 2 ];
            cast 20 0 [ 0; 1; 2 ];
          ])
  in
  Alcotest.(check (list string)) "clean" [] (Harness.Checker.check_all r);
  Alcotest.(check int) "all delivered" 9 (List.length r.deliveries)

let suites =
  [
    ( "stamp-order",
      [
        Alcotest.test_case "golden pin: skeen family" `Quick test_golden;
        Alcotest.test_case "kernel: early stamp applied at admission" `Quick
          test_early_stamp_applied_at_admission;
        Alcotest.test_case "kernel: duplicate stamp keeps the first" `Quick
          test_duplicate_stamp_keeps_first;
        Alcotest.test_case "kernel: stamp after delivery is dropped" `Quick
          test_stamp_after_delivery_dropped;
        Alcotest.test_case "kernel: unfinalised root blocks, ties by id"
          `Quick test_unfinalised_blocks_and_ties_by_id;
        Alcotest.test_case "kernel: finalising raises the clock" `Quick
          test_finalize_raises_clock;
        Alcotest.test_case "scalable: a decided final raises the clock" `Quick
          test_scalable_decided_final_raises_clock;
      ] );
  ]
