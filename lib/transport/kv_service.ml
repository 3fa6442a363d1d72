(* The replicated KV service: what lib/rsm was built for, deployed for
   real. Every replica is one Tcp node (own sockets, own loop thread)
   running a protocol instance of [P] plus the KV state machine; commands
   arrive from clients over TCP, are atomically multicast to the key's
   group, WAL-appended and applied at delivery, and the client is answered
   by the replica it contacted once that replica delivers the command.

   The cluster object below holds all replicas of one deployment in this
   process (tests, bench, differential) — [amcast_kv serve] simply builds
   a cluster and exposes it; nothing here assumes colocation beyond the
   shared event-collection vectors, which exist to assemble a
   [Harness.Run_result.t] the simulator's checkers can audit.

   Crash/restart: a crashed replica's process state is gone; on restart it
   comes back as a LEARNER — it replays its WAL, drops protocol frames
   (rejoining consensus after amnesia would be unsafe: its promises died
   with it) and catches up through service-level anti-entropy, pulling the
   committed log suffix from a live group peer. Prefix-aware
   [Rsm.check_logs] is the oracle for both phases. *)

open Net

module Make (P : Amcast.Protocol.S) = struct
  type wire =
    | Proto of P.wire
    | Sync_req of { learner : Topology.pid; from : int }
        (* learner -> peer: send me your committed log from index [from]
           (the learner's applied count) on *)
    | Sync_resp of { from : int; suffix : string list }
        (* peer -> learner: the encoded entries from index [from] on,
           oldest first *)

  type replica = {
    pid : Topology.pid;
    mutable tcp : wire Tcp.t;
    mutable raw : wire Runtime.Services.t; (* service-level sends *)
    mutable proto : P.t option; (* None while a learner *)
    mutable state : Kv.state;
    mutable log : Kv.cmd list; (* newest first *)
    mutable applied : int; (* [List.length log] *)
    mutable wal : Wal.t;
    pending : (Tcp.client * int) Runtime.Msg_id.Tbl.t;
        (* commands this replica submitted for a connected client, keyed
           by message id; answered at delivery *)
    mutable learner : bool;
    mutable synced : bool; (* learner caught up with a peer *)
  }

  type t = {
    topology : Topology.t;
    spec : (Kv.state, Kv.cmd) Rsm.spec;
    config : Amcast.Protocol.Config.t;
    inject : Latency.t option;
    seed : int;
    epoch : float;
    dir : string;
    addrs : (string * int) array;
    codec : wire Tcp.codec;
    replicas : replica array;
    crashed : bool array; (* currently down *)
    mutable crash_log : Topology.pid list; (* ever crashed (faulty) *)
    mu : Mutex.t; (* guards vecs, next_seq, crash bookkeeping *)
    next_seq : int array;
    casts : Harness.Run_result.cast_event Harness.Vec.t;
    deliveries : Harness.Run_result.delivery_event Harness.Vec.t;
    (* counters of replaced (restarted) tcp nodes, so totals survive *)
    mutable base_intra : int;
    mutable base_inter : int;
    mutable base_events : int;
  }

  let wal_path dir pid = Filename.concat dir (Printf.sprintf "kv-p%d.wal" pid)

  let ensure_dir dir =
    if not (Sys.file_exists dir) then
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

  (* The protocol sees [P.wire] services; the service wraps its frames in
     [Proto] so sync traffic can share the sockets. *)
  let proto_services (s : wire Runtime.Services.t) =
    {
      s with
      Runtime.Services.send = (fun ~dst w -> s.send ~dst (Proto w));
      send_multi = (fun dsts w -> s.send_multi dsts (Proto w));
    }

  (* ---------- delivery: WAL, apply, reply ---------- *)

  (* [tcp] is the node the protocol instance was attached to; the
     A-Deliver tick lands on its clock. *)
  let deliver t r tcp (msg : Amcast.Msg.t) =
    Tcp.bump_lc tcp Lclock.on_local;
    Mutex.lock t.mu;
    Harness.Vec.push t.deliveries
      {
        Harness.Run_result.pid = r.pid;
        msg;
        at = r.raw.Runtime.Services.now ();
        lc = Tcp.lc r.tcp;
      };
    Mutex.unlock t.mu;
    let cmd = t.spec.Rsm.decode msg.Amcast.Msg.payload in
    Wal.append r.wal msg.Amcast.Msg.payload;
    let ok, value = Kv.reply_of r.state cmd in
    r.state <- t.spec.Rsm.apply r.state cmd;
    r.log <- cmd :: r.log;
    r.applied <- r.applied + 1;
    match Runtime.Msg_id.Tbl.find_opt r.pending msg.Amcast.Msg.id with
    | None -> ()
    | Some (client, req) ->
      Runtime.Msg_id.Tbl.remove r.pending msg.Amcast.Msg.id;
      Tcp.reply client ~req ~ok value

  (* ---------- submission ---------- *)

  let fresh_id t ~origin =
    Mutex.lock t.mu;
    let seq = t.next_seq.(origin) in
    t.next_seq.(origin) <- seq + 1;
    Mutex.unlock t.mu;
    Runtime.Msg_id.make ~origin ~seq

  (* Loop-thread half of a submission (mirrors Runner.cast_at). *)
  let do_cast t r (msg : Amcast.Msg.t) =
    match r.proto with
    | None -> () (* learner: nothing to order with; clients are refused *)
    | Some p ->
      Tcp.bump_lc r.tcp Lclock.on_local;
      Mutex.lock t.mu;
      Harness.Vec.push t.casts
        {
          Harness.Run_result.msg;
          origin = r.pid;
          at = r.raw.Runtime.Services.now ();
          lc = Tcp.lc r.tcp;
        };
      Mutex.unlock t.mu;
      P.cast p msg

  let submit t ~origin cmd =
    let r = t.replicas.(origin) in
    let id = fresh_id t ~origin in
    let msg =
      Amcast.Msg.make ~id ~dest:(t.spec.Rsm.placement cmd)
        (t.spec.Rsm.encode cmd)
    in
    Tcp.post r.tcp (fun () -> do_cast t r msg);
    id

  (* ---------- anti-entropy (learner catch-up) ---------- *)

  let encoded_log r = List.rev_map Kv.encode r.log

  (* The newest [k] entries of a newest-first [log], encoded, oldest
     first. *)
  let rec newest k log acc =
    match log with
    | cmd :: log when k > 0 -> newest (k - 1) log (Kv.encode cmd :: acc)
    | _ -> acc

  let apply_encoded t r enc =
    let cmd = t.spec.Rsm.decode enc in
    r.state <- t.spec.Rsm.apply r.state cmd;
    r.log <- cmd :: r.log;
    r.applied <- r.applied + 1

  (* Appends a peer's suffix only where it starts: a stale or early
     response is dropped, and the next request asks again. The learner
     does not compare prefixes; [check_consistency] flags divergence. *)
  let absorb_sync t r ~from suffix =
    if from = r.applied then begin
      List.iter
        (fun enc ->
          Wal.append r.wal enc;
          apply_encoded t r enc)
        suffix;
      r.synced <- true
    end

  (* ---------- wiring one node ---------- *)

  let set_receiver t r =
    Tcp.set_receiver r.tcp (fun ~src w ->
        match w with
        | Proto pw -> (
          match r.proto with
          | Some p when not r.learner -> P.on_receive p ~src pw
          | _ -> () (* learner: protocol frames die here *))
        | Sync_req { learner; from } ->
          (* A peer behind the learner has nothing to send it. *)
          let n = r.applied in
          if from <= n then
            r.raw.Runtime.Services.send ~dst:learner
              (Sync_resp { from; suffix = newest (n - from) r.log [] })
        | Sync_resp { from; suffix } ->
          if r.learner then absorb_sync t r ~from suffix)

  let group_of_key t k = Kv.group_of_key ~groups:(Topology.n_groups t.topology) k

  (* A client may ask any replica; only a live protocol-running member of
     the key's group can answer (it replies when it delivers). Others
     redirect. *)
  let set_client_handler t r =
    Tcp.set_client_handler r.tcp (fun client ~req line ->
        match Kv.parse line with
        | None -> Tcp.reply client ~req ~ok:false "ERR parse"
        | Some cmd ->
          if r.learner then Tcp.reply client ~req ~ok:false "ERR learner"
          else
            let g = group_of_key t (Kv.key_of cmd) in
            if Topology.group_of t.topology r.pid <> g then begin
              let target =
                List.find_opt
                  (fun p ->
                    (not t.crashed.(p)) && not t.replicas.(p).learner)
                  (Topology.members t.topology g)
              in
              match target with
              | None -> Tcp.reply client ~req ~ok:false "ERR unavailable"
              | Some p ->
                let host, port = t.addrs.(p) in
                Tcp.reply client ~req ~ok:false
                  (Printf.sprintf "REDIRECT %d %s %d" p host port)
            end
            else begin
              let id = fresh_id t ~origin:r.pid in
              let msg =
                Amcast.Msg.make ~id ~dest:(t.spec.Rsm.placement cmd)
                  (t.spec.Rsm.encode cmd)
              in
              Runtime.Msg_id.Tbl.add r.pending id (client, req);
              do_cast t r msg
            end)

  let make_tcp t pid =
    Tcp.create ?inject:t.inject ~seed:t.seed ~epoch:t.epoch ~codec:t.codec
      ~topology:t.topology ~self:pid ~addrs:t.addrs ()

  let attach_protocol t r =
    let tcp = r.tcp in
    let proto =
      P.create ~services:(proto_services r.raw) ~config:t.config
        ~deliver:(fun msg -> deliver t r tcp msg)
    in
    r.proto <- Some proto;
    r.learner <- false

  (* ---------- cluster lifecycle ---------- *)

  let create ?inject ?(seed = 0) ?(config = Amcast.Protocol.Config.default)
      ?(base_port = 7400) ~dir topology =
    ensure_dir dir;
    let n = Topology.n_processes topology in
    let groups = Topology.n_groups topology in
    let addrs = Tcp.localhost_addrs ~base_port topology in
    let codec = Tcp.marshal_codec () in
    let epoch = Unix.gettimeofday () in
    let dummy_replica tcp raw pid =
      let wal_file = wal_path dir pid in
      (* a fresh cluster starts from an empty store *)
      (try Sys.remove wal_file with Sys_error _ -> ());
      {
        pid;
        tcp;
        raw;
        proto = None;
        state = Kv.SMap.empty;
        log = [];
        applied = 0;
        wal = Wal.create wal_file;
        pending = Runtime.Msg_id.Tbl.create 64;
        learner = true;
        synced = false;
      }
    in
    let t =
      {
        topology;
        spec = Kv.spec ~groups;
        config = { config with conflict = Kv.conflict ~groups };
        inject;
        seed;
        epoch;
        dir;
        addrs;
        codec;
        replicas = [||];
        crashed = Array.make n false;
        crash_log = [];
        mu = Mutex.create ();
        next_seq = Array.make n 0;
        casts = Harness.Vec.create ();
        deliveries = Harness.Vec.create ();
        base_intra = 0;
        base_inter = 0;
        base_events = 0;
      }
    in
    let replicas =
      Array.init n (fun pid ->
          let tcp =
            Tcp.create ?inject ~seed ~epoch ~codec ~topology ~self:pid ~addrs
              ()
          in
          dummy_replica tcp (Tcp.services tcp) pid)
    in
    let t = { t with replicas } in
    Array.iter
      (fun r ->
        attach_protocol t r;
        set_receiver t r;
        set_client_handler t r)
      replicas;
    Array.iter (fun r -> Tcp.start r.tcp) replicas;
    t

  let addr_of t pid = t.addrs.(pid)

  let contact_for t key =
    let g = group_of_key t key in
    match
      List.find_opt
        (fun p -> (not t.crashed.(p)) && not t.replicas.(p).learner)
        (Topology.members t.topology g)
    with
    | Some p -> p
    | None -> List.hd (Topology.members t.topology g)

  (* ---------- fault injection ---------- *)

  let crash t pid =
    let r = t.replicas.(pid) in
    Tcp.stop r.tcp;
    Wal.close r.wal;
    Mutex.lock t.mu;
    t.crashed.(pid) <- true;
    if not (List.mem pid t.crash_log) then t.crash_log <- pid :: t.crash_log;
    Mutex.unlock t.mu;
    Array.iter
      (fun other ->
        if other.pid <> pid && not t.crashed.(other.pid) then
          Tcp.announce_crash other.tcp pid)
      t.replicas

  let restart t pid =
    let r = t.replicas.(pid) in
    (* retire the old node's counters before replacing it *)
    Mutex.lock t.mu;
    t.base_intra <- t.base_intra + Tcp.sent_intra r.tcp;
    t.base_inter <- t.base_inter + Tcp.sent_inter r.tcp;
    t.base_events <- t.base_events + Tcp.events_processed r.tcp;
    Mutex.unlock t.mu;
    (* durable state back from the WAL (torn tail dropped) *)
    let records, wal = Wal.recover (wal_path t.dir pid) in
    r.wal <- wal;
    r.state <- t.spec.Rsm.initial ();
    r.log <- [];
    r.applied <- 0;
    List.iter (apply_encoded t r) records;
    Runtime.Msg_id.Tbl.reset r.pending;
    r.proto <- None;
    r.learner <- true;
    r.synced <- false;
    let tcp = make_tcp t pid in
    r.tcp <- tcp;
    r.raw <- Tcp.services tcp;
    set_receiver t r;
    set_client_handler t r;
    (* the new node must know who is still down *)
    Array.iteri
      (fun q down -> if down && q <> pid then Tcp.announce_crash tcp q)
      (Array.copy t.crashed);
    Tcp.start tcp;
    Mutex.lock t.mu;
    t.crashed.(pid) <- false;
    Mutex.unlock t.mu;
    Array.iter
      (fun other ->
        if other.pid <> pid && not t.crashed.(other.pid) then
          Tcp.announce_recovery other.tcp pid)
      t.replicas;
    (* periodic anti-entropy: nag a live group peer every 50 ms, for the
       initial catch-up and then to keep following commands the group
       commits while this replica sits out of consensus. Retry also
       covers frames lost while links re-form after the restart. *)
    let peer () =
      List.find_opt
        (fun p ->
          p <> pid && (not t.crashed.(p)) && not t.replicas.(p).learner)
        (Topology.members t.topology (Topology.group_of t.topology pid))
    in
    let rec kick () =
      if Tcp.running r.tcp then begin
        (match peer () with
        | Some q ->
          r.raw.Runtime.Services.send ~dst:q
            (Sync_req { learner = pid; from = r.applied })
        | None -> ());
        ignore
          (r.raw.Runtime.Services.set_timer ~after:(Des.Sim_time.of_ms 50)
             kick)
      end
    in
    Tcp.post tcp kick

  (* ---------- observation ---------- *)

  let synced t pid = t.replicas.(pid).synced
  let state_of t pid = t.replicas.(pid).state
  let log_of t pid = List.rev t.replicas.(pid).log
  let applied t pid = t.replicas.(pid).applied

  let await ?(timeout = 10.0) cond =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      if cond () then true
      else if Unix.gettimeofday () > deadline then cond ()
      else begin
        Thread.delay 0.002;
        go ()
      end
    in
    go ()

  let check_consistency t =
    let logs = Array.map encoded_log t.replicas in
    Rsm.check_logs ~topology:t.topology
      ~alive:(fun pid -> not (List.mem pid t.crash_log))
      ~logs

  let run_result t =
    Mutex.lock t.mu;
    let casts = Harness.Vec.to_list t.casts in
    let deliveries = Harness.Vec.to_list t.deliveries in
    let crashed = List.rev t.crash_log in
    Mutex.unlock t.mu;
    let sum f base = Array.fold_left (fun acc r -> acc + f r.tcp) base t.replicas in
    Harness.Run_result.make ~topology:t.topology ~casts ~deliveries ~crashed
      ~trace:(Runtime.Trace.create ~enabled:false ())
      ~inter_group_msgs:(sum Tcp.sent_inter t.base_inter)
      ~intra_group_msgs:(sum Tcp.sent_intra t.base_intra)
      ~end_time:(t.replicas.(0).raw.Runtime.Services.now ())
      ~drained:true
      ~events_executed:(sum Tcp.events_processed t.base_events)
      ()

  let stop t =
    Array.iter
      (fun r ->
        if Tcp.running r.tcp then Tcp.stop r.tcp;
        Wal.close r.wal)
      t.replicas
end
