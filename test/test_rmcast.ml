open Des
open Net
open Runtime
open Rmcast

type deployment = {
  engine : string Reliable_multicast.msg Engine.t;
  endpoints : (string, string Reliable_multicast.msg) Reliable_multicast.t array;
  delivered : (Topology.pid * Msg_id.t * string) list ref;
}

let deploy ?(seed = 0) topology =
  let engine =
    Engine.create ~seed ~latency:Util.crisp_latency
      ~tag:Reliable_multicast.tag topology
  in
  let delivered = ref [] in
  let n = Topology.n_processes topology in
  let endpoints = Array.make n None in
  List.iter
    (fun pid ->
      let ep =
        Engine.spawn engine pid (fun services ->
            let ep =
              Reliable_multicast.create ~services ~wrap:Fun.id
                ~oracle_delay:(Sim_time.of_ms 10)
                ~on_deliver:(fun ~id ~origin:_ ~dest:_ payload ->
                  delivered := (pid, id, payload) :: !delivered)
                ()
            in
            ( ep,
              {
                Engine.on_receive =
                  (fun ~src m -> Reliable_multicast.handle ep ~src m);
              } ))
      in
      endpoints.(pid) <- Some ep)
    (Topology.all_pids topology);
  { engine; endpoints = Array.map Option.get endpoints; delivered }

let cast_at d ~at ~origin ~dest payload =
  let id = Msg_id.make ~origin ~seq:0 in
  Engine.at d.engine at (fun () ->
      Reliable_multicast.rmcast d.endpoints.(origin) ~id ~dest payload);
  id

let deliverers d id =
  List.filter_map
    (fun (pid, i, _) -> if Msg_id.equal i id then Some pid else None)
    !(d.delivered)
  |> List.sort Int.compare

let test_validity_all_addressees () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = deploy topo in
  let id = cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0; 1; 2 ] "x" in
  Engine.run d.engine;
  Alcotest.(check (list int)) "exactly the addressees" [ 0; 1; 2 ]
    (deliverers d id)

let test_sender_not_addressee () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = deploy topo in
  let id = cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 2; 3 ] "x" in
  Engine.run d.engine;
  Alcotest.(check (list int)) "caster excluded" [ 2; 3 ] (deliverers d id)

let test_no_duplicates () =
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let d = deploy topo in
  let id = cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0; 1; 2 ] "x" in
  Engine.run d.engine;
  let ds = deliverers d id in
  Alcotest.(check (list int)) "once each" [ 0; 1; 2 ] ds

let test_latency_degree_one () =
  (* The non-uniform primitive delivers in one inter-group hop: delivery
     times equal one inter-group latency. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let d = deploy topo in
  ignore (cast_at d ~at:Sim_time.zero ~origin:0 ~dest:[ 0; 1 ] "x");
  Engine.run d.engine;
  Alcotest.(check int) "one inter-group delay" 50_000
    (Sim_time.to_us (Engine.now d.engine))

let test_agreement_origin_crashes_eager () =
  (* Origin crashes mid-cast losing the copies to group 1 entirely; the
     crash-relay rule must still get the message to group 1. *)
  let topo = Topology.make ~sizes:[ 2; 2 ] in
  let d = deploy topo in
  let id = cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0; 1; 2; 3 ] "x" in
  Engine.schedule_crash ~drop:(Engine.Lose_to [ 2; 3 ]) d.engine
    ~at:(Sim_time.of_us 1_100) 0;
  Engine.run d.engine;
  let ds = deliverers d id in
  Alcotest.(check (list int)) "addressees deliver (origin delivered before crashing)"
    [ 0; 1; 2; 3 ] ds

let test_quiescent_failure_free () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let d = deploy topo in
  ignore (cast_at d ~at:(Sim_time.of_ms 1) ~origin:0 ~dest:[ 0; 1 ] "x");
  Engine.run d.engine;
  (* Eager mode, no failures: exactly |dest| data messages. *)
  Alcotest.(check int) "minimal message count" 1
    (Network.sent_total (Engine.network d.engine))

let suites =
  [
    ( "rmcast",
      [
        Alcotest.test_case "validity" `Quick test_validity_all_addressees;
        Alcotest.test_case "caster not addressee" `Quick
          test_sender_not_addressee;
        Alcotest.test_case "no duplicates" `Quick test_no_duplicates;
        Alcotest.test_case "latency degree one" `Quick
          test_latency_degree_one;
        Alcotest.test_case "agreement under crash (eager)" `Quick
          test_agreement_origin_crashes_eager;
        Alcotest.test_case "minimal traffic when failure-free" `Quick
          test_quiescent_failure_free;
      ] );
  ]
