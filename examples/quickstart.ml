(* Quickstart: deploy the paper's genuine atomic multicast (Algorithm A1)
   on a simulated three-site WAN, multicast a few messages to different
   group subsets, and inspect what the library gives you back: per-process
   delivery sequences, measured latency degrees, and machine-checked
   correctness properties.

   Run with: dune exec examples/quickstart.exe *)

open Des
open Net

(* The runner instantiates one simulated process per topology slot, all
   running A1, and wires casting/delivery to the measurement harness. *)
module Runner = Harness.Runner.Make (Amcast.A1)

let () =
  (* Three geographical sites ("groups"), two replicas each: pids 0-1 in
     group 0, 2-3 in group 1, 4-5 in group 2. Inter-site links take ~50ms,
     local links ~1ms — the paper's WAN setting. *)
  let topology = Topology.symmetric ~groups:3 ~per_group:2 in
  let deployment = Runner.deploy ~seed:42 topology in

  (* A-MCast three messages:
     - m0 from p0 to groups {0,1};
     - m1 from p2 to group {1} only (single-group: the cheap case);
     - m2 from p4 to all three groups. *)
  let m0 =
    Runner.cast_at deployment ~at:(Sim_time.of_ms 1) ~origin:0
      ~dest:[ 0; 1 ] ~payload:"hello 0+1" ()
  in
  let m1 =
    Runner.cast_at deployment ~at:(Sim_time.of_ms 2) ~origin:2 ~dest:[ 1 ]
      ~payload:"hello 1" ()
  in
  let m2 =
    Runner.cast_at deployment ~at:(Sim_time.of_ms 3) ~origin:4
      ~dest:[ 0; 1; 2 ] ~payload:"hello all" ()
  in

  (* Run the virtual WAN until every protocol instance goes quiet. *)
  let result = Runner.run_deployment deployment in

  Fmt.pr "== deliveries, in order, per process ==@.";
  List.iter
    (fun pid ->
      Fmt.pr "  p%d (group %d): %a@." pid
        (Topology.group_of topology pid)
        Fmt.(
          list ~sep:(any " -> ") (fun ppf (m : Amcast.Msg.t) ->
              Fmt.pf ppf "%s" m.payload))
        (Harness.Run_result.sequence_of result pid))
    (Topology.all_pids topology);

  Fmt.pr "@.== latency degrees (inter-site hops on the causal path) ==@.";
  List.iter
    (fun (name, id) ->
      Fmt.pr "  %s: %a@." name
        Fmt.(option ~none:(any "undelivered") int)
        (Harness.Metrics.latency_degree result id))
    [ ("m0 (2 groups) ", m0); ("m1 (1 group)  ", m1); ("m2 (3 groups) ", m2) ];
  Fmt.pr "  (the paper proves 2 is optimal for >= 2 groups)@.";

  Fmt.pr "@.== messages on the expensive inter-site links ==@.";
  Fmt.pr "  %d inter-site, %d local@."
    result.Harness.Run_result.inter_group_msgs
    result.intra_group_msgs;

  Fmt.pr "@.== correctness (checked from the trace, not self-reported) ==@.";
  match Harness.Checker.check_all ~expect_genuine:true result with
  | [] ->
    Fmt.pr
      "  uniform integrity, validity, uniform agreement, uniform prefix \
       order, genuineness: all hold.@."
  | violations ->
    Fmt.pr "  VIOLATIONS:@.%a@."
      Fmt.(list ~sep:(any "@.") string)
      violations;
    exit 1
