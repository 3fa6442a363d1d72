open Net
open Runtime

let name = "ring"

(* What a group agrees on when it stamps a message: the message itself and
   the timestamp proposed by the deciding proposal. *)
type stamp = { msg : Msg.t; ts : int }

type wire =
  | Rm of Msg.t Rmcast.Reliable_multicast.msg
  | Handoff of { msg : Msg.t; ts : int } (* from my predecessor group *)
  | Final of { msg : Msg.t; ts : int } (* from the last group of the chain *)
  | Cons of stamp Consensus.Paxos.msg

let tag = function
  | Rm m -> Rmcast.Reliable_multicast.tag m
  | Handoff _ -> "ring.handoff"
  | Final _ -> "ring.final"
  | Cons c -> Consensus.Paxos.tag c

type pending = {
  msg : Msg.t;
  mutable known_ts : int; (* best lower bound on the final timestamp *)
  mutable final : int option;
  mutable stamped : bool; (* my group already ran consensus on it *)
  mutable queued : bool; (* in [queue] *)
  mutable handle : Pending_index.handle;
      (* slot in [ord], keyed by the final timestamp once known, else by
         [known_ts] *)
}

type t = {
  services : wire Services.t;
  deliver : Msg.t -> unit;
  my_group : Topology.gid;
  mutable clock : int;
  mutable instance : int; (* group-local: next consensus instance *)
  mutable prop_instance : int;
  mutable outstanding : Msg_id.t option; (* stamped, awaiting Final *)
  queue : pending Queue.t; (* waiting for my group's stamp, FIFO *)
  decisions : stamp Consensus.Window.t; (* decided stamps, by instance *)
  pending : pending Msg_id.Tbl.t;
  ord : pending Pending_index.t; (* pending, by (final or known_ts, id) *)
  delivered : unit Msg_id.Tbl.t;
  mutable rm : (Msg.t, wire) Rmcast.Reliable_multicast.t option;
  mutable cons : (stamp, wire) Consensus.Paxos.t option;
}

let rm t = Option.get t.rm
let cons t = Option.get t.cons
let chain (m : Msg.t) = m.dest (* dest is sorted: the chain order *)
let first_group m = List.hd (chain m)
let is_last_group t m = List.nth (chain m) (List.length (chain m) - 1) = t.my_group

let next_group t (m : Msg.t) =
  let rec find = function
    | g :: next :: _ when g = t.my_group -> Some next
    | _ :: rest -> find rest
    | [] -> None
  in
  find (chain m)

(* Deliver the message with the smallest final (ts, id) unless a message
   whose timestamp is not final yet could still land below it: its
   [known_ts] is a lower bound on its final stamp. [ord] keys each final
   message by its final stamp and every other one by [known_ts], so a
   final root is deliverable and a non-final root blocks everything. *)
let rec delivery_test t =
  match Pending_index.min_elt t.ord with
  | Some (_, _, p) when p.final <> None ->
    ignore (Pending_index.pop_min t.ord);
    Msg_id.Tbl.remove t.pending p.msg.id;
    Msg_id.Tbl.replace t.delivered p.msg.id ();
    t.deliver p.msg;
    delivery_test t
  | Some _ | None -> ()

(* [final <> None] means every group of the chain — ours included, via an
   instance decided at another member — has stamped the message: its
   timestamp is fixed and it needs nothing more from this group. Proposing
   it would re-propose it forever when a Final overtakes our own Decide
   while delivery is blocked behind a slower message (a livelock: each
   re-proposal burns a full consensus instance without ever stamping the
   blocker). A delivered message is final too. *)
let proposable p = (not p.stamped) && p.final = None

(* Propose my first proposable queue entry for the group's next stamping
   instance; the group handles one message at a time (waits for the Final
   acknowledgment). Stamped and final never revert, so entries that are
   no longer proposable are dropped when they reach the head. *)
let try_propose t =
  if t.outstanding = None && t.prop_instance <= t.instance then begin
    while
      (not (Queue.is_empty t.queue)) && not (proposable (Queue.peek t.queue))
    do
      (Queue.pop t.queue).queued <- false
    done;
    match Queue.peek_opt t.queue with
    | None -> ()
    | Some p ->
      let ts = max t.clock p.known_ts + 1 in
      Consensus.Paxos.propose (cons t) ~instance:t.instance
        { msg = p.msg; ts };
      t.prop_instance <- t.instance + 1
  end

let get_pending t (m : Msg.t) ~known_ts =
  match Msg_id.Tbl.find_opt t.pending m.id with
  | Some p ->
    if known_ts > p.known_ts then begin
      p.known_ts <- known_ts;
      if p.final = None then
        p.handle <-
          Pending_index.reposition t.ord p.handle ~ts:known_ts ~id:m.id p
    end;
    p
  | None ->
    let p =
      { msg = m; known_ts; final = None; stamped = false; queued = false;
        handle = -1 }
    in
    p.handle <- Pending_index.add t.ord ~ts:known_ts ~id:m.id p;
    Msg_id.Tbl.replace t.pending m.id p;
    p

(* A message enters my group's queue (via reliable multicast to the first
   group of its chain, or a hand-off from my predecessor). *)
let enqueue t (m : Msg.t) ~known_ts =
  if not (Msg_id.Tbl.mem t.delivered m.id) then begin
    let p = get_pending t m ~known_ts in
    if (not p.stamped) && not p.queued then begin
      p.queued <- true;
      Queue.push p t.queue;
      try_propose t
    end
  end

(* Decisions are buffered per instance and consumed strictly in instance
   order: a lagging member may receive Decide messages out of order. *)
let rec process_decisions t =
  if t.outstanding = None then begin
    match Consensus.Window.take t.decisions t.instance with
    | None -> try_propose t
    | Some stamp -> apply_stamp t stamp
  end

and apply_stamp t (stamp : stamp) =
  let m = stamp.msg in
  t.clock <- max t.clock stamp.ts;
  let already_done =
    Msg_id.Tbl.mem t.delivered m.id
    ||
    match Msg_id.Tbl.find_opt t.pending m.id with
    | Some p -> p.final <> None
    | None -> false
  in
  if already_done then begin
    (* The Final overtook our Decide message: the instance is complete. *)
    t.instance <- t.instance + 1;
    process_decisions t
  end
  else begin
    let p = get_pending t m ~known_ts:stamp.ts in
    p.stamped <- true;
    t.outstanding <- Some m.id;
    if is_last_group t m then begin
      (* The chain ends here: my group's stamp is the final timestamp. *)
      Services.send_multi t.services
        (List.filter
           (fun q -> q <> t.services.Services.self)
           (Msg.dest_pids t.services.Services.topology m))
        (Final { msg = m; ts = stamp.ts });
      on_final t m ~ts:stamp.ts
    end
    else begin
      match next_group t m with
      | Some g ->
        Services.send_group t.services g (Handoff { msg = m; ts = stamp.ts })
      | None -> assert false
    end
  end

and on_final t (m : Msg.t) ~ts =
  t.clock <- max t.clock ts;
  (match t.outstanding with
  | Some id when Msg_id.equal id m.id ->
    t.outstanding <- None;
    t.instance <- t.instance + 1
  | Some _ | None -> ());
  if not (Msg_id.Tbl.mem t.delivered m.id) then begin
    let p = get_pending t m ~known_ts:ts in
    p.final <- Some ts;
    p.handle <- Pending_index.reposition t.ord p.handle ~ts ~id:m.id p
  end;
  delivery_test t;
  process_decisions t

let cast t (m : Msg.t) =
  Rmcast.Reliable_multicast.rmcast (rm t) ~id:m.id
    ~dest:(Topology.members t.services.Services.topology (first_group m))
    m

let on_receive t ~src w =
  match w with
  | Rm rmsg -> Rmcast.Reliable_multicast.handle (rm t) ~src rmsg
  | Handoff { msg; ts } -> enqueue t msg ~known_ts:ts
  | Final { msg; ts } -> on_final t msg ~ts
  | Cons cmsg -> Consensus.Paxos.handle (cons t) ~src cmsg

let create ~services ~config ~deliver =
  let t =
    {
      services;
      deliver;
      my_group = Services.my_group services;
      clock = 0;
      instance = 1;
      prop_instance = 1;
      outstanding = None;
      queue = Queue.create ();
      decisions = Consensus.Window.create ();
      pending = Msg_id.Tbl.create 32;
      ord = Pending_index.create ();
      delivered = Msg_id.Tbl.create 32;
      rm = None;
      cons = None;
    }
  in
  let detector =
    Fd.Detector.oracle ~delay:config.Protocol.Config.oracle_delay services
  in
  t.rm <-
    Some
      (Rmcast.Reliable_multicast.create ~services
         ~wrap:(fun m -> Rm m)
         ~oracle_delay:config.Protocol.Config.oracle_delay
         ~on_deliver:(fun ~id:_ ~origin:_ ~dest:_ m ->
           enqueue t m ~known_ts:0)
         ());
  t.cons <-
    Some
      (Consensus.Paxos.create ~services
         ~wrap:(fun m -> Cons m)
         ~participants:
           (Topology.members services.Services.topology t.my_group)
         ~detector
         ~timeout:config.Protocol.Config.consensus_timeout
           (* Decide timing gates the inter-group Handoff/Final fan-outs
              here: with the coordinator-only Decide of the fast lane, the
              first member's Final overtakes the others' Decide and
              suppresses their (redundant) fan-outs, changing the
              inter-group message pattern. The fast lanes must stay an
              intra-group economy, so this consensus always runs the
              all-to-all reference pattern (the Figure 1 pins fail
              otherwise). *)
         ~fast_lanes:false
         ~on_decide:(fun ~instance v ->
           Consensus.Window.set t.decisions instance v;
           process_decisions t)
         ());
  t

let stats t =
  [
    ("cons.instances", Consensus.Paxos.retained_instances (cons t));
    ("rm.entries", Rmcast.Reliable_multicast.retained_entries (rm t));
    ("rm.tombstones", Rmcast.Reliable_multicast.reclaimed_entries (rm t));
    ("pending", Msg_id.Tbl.length t.pending);
  ]
