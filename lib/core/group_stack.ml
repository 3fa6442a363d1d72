open Net
open Runtime

type ('v, 'w) t = {
  rm : (Msg.t list, 'w) Rmcast.Reliable_multicast.t;
  cons : ('v, 'w) Consensus.Paxos.t;
  hb : 'w Fd.Heartbeat.t option;
  batcher : Batcher.t;
}

let create ~services ~config ~rm:wrap_rm ~cons:wrap_cons ~hb:wrap_hb
    ?on_crash ~flush_to ~on_rdeliver ~on_decide () =
  let { Protocol.Config.oracle_delay; _ } = config in
  let members =
    Topology.members services.Services.topology (Services.my_group services)
  in
  let hb, detector =
    match config.Protocol.Config.fd_mode with
    | Protocol.Config.Oracle ->
      (None, Fd.Detector.oracle ~delay:oracle_delay services)
    | Protocol.Config.Heartbeat { period; timeout } ->
      let h =
        Fd.Heartbeat.create ~services ~wrap:wrap_hb ~monitored:members ~period
          ~timeout ()
      in
      (Some h, Fd.Heartbeat.detector h)
  in
  Option.iter
    (services.Services.on_crash_detected ~delay:oracle_delay)
    on_crash;
  let rm =
    Rmcast.Reliable_multicast.create ~services ~wrap:wrap_rm ~oracle_delay
      ~on_deliver:(fun ~id:_ ~origin:_ ~dest:_ msgs -> on_rdeliver msgs)
      ()
  in
  let batcher =
    Batcher.create ~max:config.Protocol.Config.batch_max
      ~delay:config.Protocol.Config.batch_delay
      ~set_timer:services.Services.set_timer
      ~cancel_timer:services.Services.cancel_timer
      ~flush:(fun ~key msgs ->
        let first = List.hd msgs in
        Rmcast.Reliable_multicast.rmcast rm ~id:first.Msg.id
          ~dest:(flush_to key) msgs)
  in
  let cons =
    Consensus.Paxos.create ~services ~wrap:wrap_cons ~participants:members
      ~detector ~timeout:config.Protocol.Config.consensus_timeout ~on_decide ()
  in
  { rm; cons; hb; batcher }

let cast t m = Batcher.add t.batcher m
let on_rm t ~src m = Rmcast.Reliable_multicast.handle t.rm ~src m
let on_cons t ~src m = Consensus.Paxos.handle t.cons ~src m

let on_hb t ~src m =
  match t.hb with Some hb -> Fd.Heartbeat.handle hb ~src m | None -> ()

let stats t =
  [
    ("cons.instances", Consensus.Paxos.retained_instances t.cons);
    ("rm.entries", Rmcast.Reliable_multicast.retained_entries t.rm);
    ("rm.tombstones", Rmcast.Reliable_multicast.reclaimed_entries t.rm);
    ("batches_formed", Batcher.batches_formed t.batcher);
    ("batched_casts", Batcher.casts_packed t.batcher);
    ("casts_per_batch_max", Batcher.max_batch t.batcher);
  ]
