open Des
open Net
open Runtime

type fault = { at : Sim_time.t; pid : Topology.pid; drop : Engine.drop_spec }

let crash ?(drop = Engine.Keep_inflight) ~at pid = { at; pid; drop }

module Make (P : Amcast.Protocol.S) = struct
  type deployment = {
    engine : P.wire Engine.t;
    nodes : P.t option array;
    next_seq : int array; (* per-origin message sequence numbers *)
    casts : Run_result.cast_event Vec.t; (* in cast order *)
    deliveries : Run_result.delivery_event Vec.t; (* in occurrence order *)
  }

  let deploy ?(seed = 0) ?(latency = Latency.wan_default)
      ?(config = Amcast.Protocol.Config.default) ?(record_trace = true)
      ?(faults = []) ?nemesis topology =
    let engine = Engine.create ~seed ~latency ~record_trace ~tag:P.tag topology in
    let n = Topology.n_processes topology in
    let d =
      {
        engine;
        nodes = Array.make n None;
        next_seq = Array.make n 0;
        casts = Vec.create ();
        deliveries = Vec.create ();
      }
    in
    List.iter
      (fun pid ->
        let node =
          Engine.spawn engine pid (fun services ->
              let deliver msg =
                services.Services.record_deliver msg.Amcast.Msg.id;
                Vec.push d.deliveries
                  {
                    Run_result.pid;
                    msg;
                    at = services.Services.now ();
                    lc = services.Services.lc ();
                  }
              in
              let state = P.create ~services ~config ~deliver in
              ( state,
                {
                  Engine.on_receive =
                    (fun ~src w -> P.on_receive state ~src w);
                } ))
        in
        d.nodes.(pid) <- Some node)
      (Topology.all_pids topology);
    List.iter
      (fun { at; pid; drop } -> Engine.schedule_crash ~drop engine ~at pid)
      faults;
    Option.iter (fun plan -> Nemesis.apply plan engine) nemesis;
    d

  let engine d = d.engine
  let node d pid = Option.get d.nodes.(pid)

  let cast_at d ~at ~origin ~dest ?(payload = "m") () =
    let seq = d.next_seq.(origin) in
    d.next_seq.(origin) <- seq + 1;
    let id = Msg_id.make ~origin ~seq in
    let msg = Amcast.Msg.make ~id ~dest payload in
    Engine.at ~tag:(Scheduler.Tag.cast origin) d.engine at (fun () ->
        let services = Engine.services d.engine origin in
        services.Services.record_cast id;
        Vec.push d.casts
          {
            Run_result.msg;
            origin;
            at = services.Services.now ();
            lc = services.Services.lc ();
          };
        P.cast (Option.get d.nodes.(origin)) msg);
    id

  let schedule d (workload : Workload.t) =
    List.map
      (fun (c : Workload.cast) ->
        cast_at d ~at:c.at ~origin:c.origin ~dest:c.dest ~payload:c.payload
          ())
      workload

  let run_deployment ?until ?(max_steps = 50_000_000) d =
    Engine.run ?until ~max_steps d.engine;
    let trace = Engine.trace d.engine in
    let crashed = Engine.crashed d.engine in
    let network = Engine.network d.engine in
    let sched = Engine.scheduler d.engine in
    Run_result.make ~topology:(Engine.topology d.engine)
      ~casts:(Vec.to_list d.casts)
      ~deliveries:(Vec.to_list d.deliveries)
      ~crashed ~trace
      ~inter_group_msgs:(Network.sent_inter_group network)
      ~intra_group_msgs:(Network.sent_intra_group network)
      ~end_time:(Engine.now d.engine)
      ~drained:(Scheduler.pending sched = 0)
      ~events_executed:(Scheduler.executed sched) ()

  let run ?seed ?latency ?config ?record_trace ?faults ?nemesis ?until
      ?max_steps topology workload =
    let d =
      deploy ?seed ?latency ?config ?record_trace ?faults ?nemesis topology
    in
    ignore (schedule d workload);
    run_deployment ?until ?max_steps d
  end
