(* White-Box Atomic Multicast (see whitebox.mli). The stage machinery,
   pipelined proposing and decision processing are A1's; the inter-group
   exchange is leader-to-leader convoy stamps. *)

open Net
open Runtime

module Stage = struct
  type t = S0 | S1 | S2 | S3
end

let name = "whitebox"

type entry = { msg : Msg.t; ts : int; stage : Stage.t }

type wire =
  | Rm of Msg.t list Rmcast.Reliable_multicast.msg
  | Stamp of { msg : Msg.t; ts : int; from_group : Topology.gid }
      (* The convoy stamp: carries the message itself (like A1's [Ts])
         so a leader that has not yet R-delivered the batch can still
         note the message into stage s0. *)
  | Cons of entry list Consensus.Paxos.msg
  | Hb of Fd.Heartbeat.msg

let tag = function
  | Rm m -> Rmcast.Reliable_multicast.tag m
  | Stamp _ -> "whitebox.stamp"
  | Cons c -> Consensus.Paxos.tag c
  | Hb _ -> "fd.ping"

type pending = {
  msg : Msg.t;
  mutable ts : int;
  mutable stage : Stage.t;
  mutable handle : Pending_index.handle;
  mutable inflight : int;
  proposals : int Slab.Row.t; (* foreign stamps, indexed by gid *)
}

type t = {
  services : wire Services.t;
  config : Protocol.Config.t;
  deliver : Msg.t -> unit;
  my_group : Topology.gid;
  mutable k : int;
  mutable prop_k : int;
  pending : pending Msg_id.Tbl.t;
  ord : pending Pending_index.t;
  proposable : pending Msg_id.Tbl.t;
  adelivered : unit Msg_id.Tbl.t;
  decisions : entry list Slab.Window.t;
  prop_pool : int Slab.Row.pool;
  crashed : bool array;
      (* Local view of the oracle failure detector, one flag per pid;
         the leader of a group is its first non-crashed member. *)
  stamp_log : (Msg.t * int * Topology.gid list) Msg_id.Tbl.t;
      (* Own-group decided stamps: id -> (msg, ts, other dest groups).
         Every member logs deterministically at the s0 decide; the log
         is the re-send source for leader rotation, so it is retained
         for the whole run (reported via [stats]) and keeps the message
         itself — a foreign group may need our stamp long after we
         delivered and dropped the pending entry. *)
  mutable stamps_resent : int;
  mutable rm : (Msg.t list, wire) Rmcast.Reliable_multicast.t option;
  mutable cons : (entry list, wire) Consensus.Paxos.t option;
  mutable hb : wire Fd.Heartbeat.t option;
  mutable batcher : Batcher.t option;
  mutable cons_executed : int;
  mutable depth_max : int;
}

let rm t = Option.get t.rm
let cons t = Option.get t.cons
let batcher t = Option.get t.batcher

let other_dest_groups t (m : Msg.t) =
  List.filter (fun g -> g <> t.my_group) m.dest

(* The convoy leader of a group: its first member the local detector has
   not reported crashed. Falls back to the first member if the whole
   group is reported crashed (then nobody acts on the result anyway). *)
let leader_of t g =
  let members = Topology.members_array t.services.Services.topology g in
  let rec first i =
    if i >= Array.length members then members.(0)
    else if t.crashed.(members.(i)) then first (i + 1)
    else members.(i)
  in
  first 0

let is_leader t = leader_of t t.my_group = t.services.Services.self

let sync_proposable t (p : pending) =
  match p.stage with
  | Stage.S0 | Stage.S2 -> Msg_id.Tbl.replace t.proposable p.msg.id p
  | Stage.S1 | Stage.S3 -> Msg_id.Tbl.remove t.proposable p.msg.id

let move t (p : pending) ~ts ~stage =
  if ts <> p.ts then begin
    p.ts <- ts;
    p.handle <- Pending_index.reposition t.ord p.handle ~ts ~id:p.msg.id p
  end;
  p.stage <- stage;
  sync_proposable t p

let create_pending t (m : Msg.t) =
  let p =
    {
      msg = m;
      ts = t.k;
      stage = Stage.S0;
      handle = -1;
      inflight = -1;
      proposals = Slab.Row.acquire t.prop_pool;
    }
  in
  p.handle <- Pending_index.add t.ord ~ts:p.ts ~id:m.id p;
  Msg_id.Tbl.replace t.pending m.id p;
  sync_proposable t p;
  p

let get_or_create_pending t (m : Msg.t) =
  match Msg_id.Tbl.find_opt t.pending m.id with
  | Some p -> p
  | None -> create_pending t m

let adelivery_test t =
  let rec loop () =
    match Pending_index.min_elt t.ord with
    | Some (_, _, p) when p.stage = Stage.S3 ->
      ignore (Pending_index.pop_min t.ord);
      Slab.Row.release t.prop_pool p.proposals;
      Msg_id.Tbl.remove t.pending p.msg.id;
      Msg_id.Tbl.replace t.adelivered p.msg.id ();
      t.deliver p.msg;
      loop ()
    | Some _ | None -> ()
  in
  loop ()

let try_propose t =
  let w = max 1 t.config.Protocol.Config.pipeline in
  if t.prop_k < t.k then t.prop_k <- t.k;
  let continue = ref (Msg_id.Tbl.length t.proposable > 0) in
  while !continue && t.prop_k <= t.k + w - 1 do
    let snapshot =
      Msg_id.Tbl.fold
        (fun _ p acc ->
          if p.inflight < t.k then
            ({ msg = p.msg; ts = p.ts; stage = p.stage }, p) :: acc
          else acc)
        t.proposable []
    in
    if snapshot = [] then continue := false
    else begin
      let snapshot =
        List.sort
          (fun ((a : entry), _) ((b : entry), _) ->
            Msg.compare_id a.msg b.msg)
          snapshot
      in
      List.iter (fun (_, p) -> p.inflight <- t.prop_k) snapshot;
      Consensus.Paxos.propose (cons t) ~instance:t.prop_k
        (List.map fst snapshot);
      t.prop_k <- t.prop_k + 1;
      let depth = t.prop_k - t.k in
      if depth > t.depth_max then t.depth_max <- depth
    end
  done

(* Send our group's stamp for [m] to the leaders of the other
   destination groups — the whole wide-area exchange of this protocol. *)
let send_stamp_to_leaders t (m : Msg.t) ~ts ~others =
  List.iter
    (fun g ->
      t.services.Services.send ~dst:(leader_of t g)
        (Stamp { msg = m; ts; from_group = t.my_group }))
    others

let max_other_proposal t (p : pending) =
  let rec go acc = function
    | [] -> Some acc
    | g :: rest when g = t.my_group -> go acc rest
    | g :: rest ->
      if Slab.Row.mem p.proposals g then
        go (max acc (Slab.Row.get p.proposals ~default:min_int g)) rest
      else None
  in
  go min_int p.msg.dest

(* Stage s1 completion. Unlike A1, [skip_max_group] never applies: only
   the leader holds the foreign stamps, so the final timestamp must go
   through the second consensus to reach the other members. *)
let check_s1_pending t (p : pending) =
  if p.stage = Stage.S1 then
    match max_other_proposal t p with
    | Some max_other ->
      move t p ~ts:(max p.ts max_other) ~stage:Stage.S2;
      try_propose t
    | None -> ()

let check_s1 t id =
  match Msg_id.Tbl.find_opt t.pending id with
  | Some p -> check_s1_pending t p
  | None -> ()

let rec process_decisions t =
  match Slab.Window.take t.decisions t.k with
  | None -> ()
  | Some entries ->
    let k = t.k in
    t.cons_executed <- t.cons_executed + 1;
    let max_ts = ref 0 in
    let moved_to_s1 = ref [] in
    List.iter
      (fun (e : entry) ->
        if Msg_id.Tbl.mem t.adelivered e.msg.id then
          max_ts := max !max_ts e.ts
        else begin
          let p = get_or_create_pending t e.msg in
          let multi = not (Msg.is_single_group e.msg) in
          if e.stage = Stage.S0 && p.stage <> Stage.S0 then
            (* Pipelined duplicate — see A1's process_decisions. *)
            max_ts := max !max_ts e.ts
          else if multi || not t.config.skip_single_group then begin
            match e.stage with
            | Stage.S0 ->
              move t p ~ts:k ~stage:Stage.S1;
              max_ts := max !max_ts k;
              let others = other_dest_groups t e.msg in
              (* Every member logs the decided stamp (deterministic:
                 decisions apply in the same order everywhere) so any
                 member promoted to leader can re-send it; only the
                 current leader sends now. *)
              Msg_id.Tbl.replace t.stamp_log e.msg.id (e.msg, k, others);
              if is_leader t then
                send_stamp_to_leaders t e.msg ~ts:k ~others;
              moved_to_s1 := e.msg.id :: !moved_to_s1
            | Stage.S2 ->
              move t p ~ts:e.ts ~stage:Stage.S3;
              max_ts := max !max_ts e.ts
            | Stage.S1 | Stage.S3 -> assert false
          end
          else begin
            move t p ~ts:k ~stage:Stage.S3;
            max_ts := max !max_ts k
          end
        end)
      entries;
    t.k <- max !max_ts t.k + 1;
    for i = k + 1 to t.k - 1 do
      Slab.Window.drop t.decisions i
    done;
    Consensus.Paxos.note_consumed (cons t) ~upto:(t.k - 1);
    List.iter (fun id -> check_s1 t id) !moved_to_s1;
    adelivery_test t;
    try_propose t;
    process_decisions t

let note_one t (m : Msg.t) =
  if
    (not (Msg_id.Tbl.mem t.pending m.id))
    && not (Msg_id.Tbl.mem t.adelivered m.id)
  then begin
    ignore (get_or_create_pending t m);
    true
  end
  else false

let note_batch t msgs =
  let fresh =
    List.fold_left
      (fun acc m ->
        let f = note_one t m in
        f || acc)
      false msgs
  in
  if fresh then try_propose t

let cast t (m : Msg.t) = Batcher.add (batcher t) m

let handle_stamp t ~from_group ~ts (msg : Msg.t) =
  if not (Msg_id.Tbl.mem t.adelivered msg.id) then begin
    let p =
      match Msg_id.Tbl.find_opt t.pending msg.id with
      | Some p -> p
      | None ->
        let p = create_pending t msg in
        try_propose t;
        p
    in
    if not (Slab.Row.mem p.proposals from_group) then
      Slab.Row.set p.proposals from_group ts;
    check_s1_pending t p
  end

(* A crash notification: update the leader view, then — if we are (now)
   our group's leader — re-send the logged stamps the crash could have
   orphaned. A crash in our own group means the old leader may have died
   mid-fanout (or held the leadership the stamps were sent under):
   re-send everything undelivered. A crash in a foreign destination
   group means stamps sent to its old leader may be gone: re-send the
   stamps of messages destined there to its new leader. Receivers
   record stamps idempotently and ignore delivered ids, so duplicate
   re-sends are harmless. *)
let on_crash t q =
  t.crashed.(q) <- true;
  if is_leader t then begin
    let gq = Topology.group_of t.services.Services.topology q in
    Msg_id.Tbl.iter
      (fun _id (msg, ts, others) ->
        (* No local-delivery guard: we may have delivered [msg] long ago
           while a foreign group is still waiting for this stamp. *)
        let resend_to =
          if gq = t.my_group then others
          else if List.mem gq others then [ gq ]
          else []
        in
        if resend_to <> [] then begin
          t.stamps_resent <- t.stamps_resent + List.length resend_to;
          send_stamp_to_leaders t msg ~ts ~others:resend_to
        end)
      t.stamp_log
  end

let on_receive t ~src w =
  match w with
  | Rm rmsg -> Rmcast.Reliable_multicast.handle (rm t) ~src rmsg
  | Stamp { msg; ts; from_group } -> handle_stamp t ~from_group ~ts msg
  | Cons cmsg -> Consensus.Paxos.handle (cons t) ~src cmsg
  | Hb m -> (
    match t.hb with
    | Some hb -> Fd.Heartbeat.handle hb ~src m
    | None -> ())

let create ~services ~config ~deliver =
  let t =
    {
      services;
      config;
      deliver;
      my_group = Services.my_group services;
      k = 1;
      prop_k = 1;
      pending = Msg_id.Tbl.create 64;
      ord = Pending_index.create ();
      proposable = Msg_id.Tbl.create 64;
      adelivered = Msg_id.Tbl.create 64;
      decisions = Slab.Window.create ();
      prop_pool =
        Slab.Row.pool
          ~width:(Topology.n_groups services.Services.topology)
          ~default:0;
      crashed =
        Array.make (Topology.n_processes services.Services.topology) false;
      stamp_log = Msg_id.Tbl.create 64;
      stamps_resent = 0;
      rm = None;
      cons = None;
      hb = None;
      batcher = None;
      cons_executed = 0;
      depth_max = 0;
    }
  in
  let detector =
    match config.Protocol.Config.fd_mode with
    | Protocol.Config.Oracle ->
      Fd.Detector.oracle ~delay:config.Protocol.Config.oracle_delay services
    | Protocol.Config.Heartbeat { period; timeout } ->
      let hb =
        Fd.Heartbeat.create ~services
          ~wrap:(fun m -> Hb m)
          ~monitored:
            (Topology.members services.Services.topology t.my_group)
          ~period ~timeout ()
      in
      t.hb <- Some hb;
      Fd.Heartbeat.detector hb
  in
  (* The leader view and the re-send rule listen to the oracle directly:
     leadership spans groups, so the subscription covers every pid. *)
  services.Services.on_crash_detected
    ~delay:config.Protocol.Config.oracle_delay (fun q -> on_crash t q);
  t.rm <-
    Some
      (Rmcast.Reliable_multicast.create ~services
         ~wrap:(fun m -> Rm m)
         ~mode:config.Protocol.Config.rm_mode
         ~oracle_delay:config.Protocol.Config.oracle_delay
         ~fast_lanes:config.Protocol.Config.fast_lanes
         ?coalesce:
           (if Protocol.Config.batching config then
              Some
                ( config.Protocol.Config.batch_max,
                  config.Protocol.Config.batch_delay )
            else None)
         ~on_deliver:(fun ~id:_ ~origin:_ ~dest:_ msgs -> note_batch t msgs)
         ());
  t.batcher <-
    Some
      (Batcher.create ~max:config.Protocol.Config.batch_max
         ~delay:config.Protocol.Config.batch_delay
         ~set_timer:services.Services.set_timer
         ~cancel_timer:services.Services.cancel_timer
         ~flush:(fun ~key msgs ->
           let first = List.hd msgs in
           Rmcast.Reliable_multicast.rmcast (rm t) ~id:first.Msg.id
             ~dest:(Topology.pids_of_groups services.Services.topology key)
             msgs));
  t.cons <-
    Some
      (Consensus.Paxos.create ~services
         ~wrap:(fun m -> Cons m)
         ~participants:
           (Topology.members services.Services.topology
              (Services.my_group services))
         ~detector
         ~timeout:config.Protocol.Config.consensus_timeout
         ~fast_lanes:config.Protocol.Config.fast_lanes
         ~on_decide:(fun ~instance v ->
           if instance >= t.k then begin
             Slab.Window.set t.decisions instance v;
             process_decisions t
           end)
         ());
  t

let pending_count t = Msg_id.Tbl.length t.pending
let clock t = t.k

let stats t =
  [
    ("cons.instances", Consensus.Paxos.retained_instances (cons t));
    ("rm.entries", Rmcast.Reliable_multicast.retained_entries (rm t));
    ("rm.tombstones", Rmcast.Reliable_multicast.reclaimed_entries (rm t));
    ("pending", Msg_id.Tbl.length t.pending);
    ("stamp_log", Msg_id.Tbl.length t.stamp_log);
    ("stamps_resent", t.stamps_resent);
    ("pipeline_depth_max", t.depth_max);
  ]
