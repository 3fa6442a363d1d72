open Net
open Runtime

module Stage = struct
  type t = S0 | S1 | S2 | S3

  let to_string = function
    | S0 -> "s0"
    | S1 -> "s1"
    | S2 -> "s2"
    | S3 -> "s3"

  let pp ppf s = Fmt.string ppf (to_string s)
end

(* A consensus proposal is a snapshot of pending messages in stages s0/s2,
   with the fields the deciders need to interpret them. *)
type entry = { msg : Msg.t; ts : int; stage : Stage.t }

type pending = {
  msg : Msg.t;
  mutable ts : int;
  mutable stage : Stage.t;
  mutable handle : Pending_index.handle; (* slot in the ordered index *)
  mutable inflight : int;
      (* highest consensus instance this message was proposed to while in
         its current proposable stage; the pipelining window skips entries
         with [inflight >= k] (already riding an undecided instance) *)
  proposals : int Slab.Row.t;
      (* foreign groups' timestamp proposals, indexed by gid; pooled —
         released back to [prop_pool] at adelivery *)
}

type 'w t = {
  config : Protocol.Config.t;
  deliver : Msg.t -> unit;
  on_s0_decided : int -> Msg.t list -> unit;
  my_group : Topology.gid;
  mutable k : int; (* K: group-clock copy = next consensus instance *)
  mutable prop_k : int; (* no two proposals for the same instance *)
  pending : pending Msg_id.Tbl.t;
  ord : pending Pending_index.t; (* pending, ordered by (ts, id) *)
  proposable : pending Msg_id.Tbl.t; (* the s0/s2 subset of [pending] *)
  adelivered : unit Msg_id.Tbl.t;
  decisions : entry list Slab.Window.t; (* decided, not yet processed *)
  prop_pool : int Slab.Row.pool; (* proposal rows, width = n_groups *)
  mutable rm : (Msg.t list, 'w) Rmcast.Reliable_multicast.t option;
  mutable cons : (entry list, 'w) Consensus.Paxos.t option;
  mutable hb : 'w Fd.Heartbeat.t option;
  mutable batcher : Batcher.t option;
  mutable cons_executed : int;
  mutable depth_max : int; (* max in-flight instances (pipelining) *)
}

let rm t = Option.get t.rm
let cons t = Option.get t.cons
let batcher t = Option.get t.batcher

(* Every stage/timestamp transition goes through here so the ordered index
   and the proposable subset can never drift from the pending table. *)
let move t (p : pending) ~ts ~stage =
  if ts <> p.ts then begin
    p.ts <- ts;
    p.handle <- Pending_index.reposition t.ord p.handle ~ts ~id:p.msg.id p
  end;
  p.stage <- stage;
  match stage with
  | Stage.S0 | Stage.S2 -> Msg_id.Tbl.replace t.proposable p.msg.id p
  | Stage.S1 | Stage.S3 -> Msg_id.Tbl.remove t.proposable p.msg.id

(* Line 10-13: first sight of a message (R-Delivered or piggybacked on a
   foreign proposal) puts it in stage s0 with the current clock as
   timestamp. *)
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
  Msg_id.Tbl.replace t.proposable m.id p;
  p

let get_or_create_pending t (m : Msg.t) =
  match Msg_id.Tbl.find_opt t.pending m.id with
  | Some p -> p
  | None -> create_pending t m

(* Line 4-7: deliver every s3 message whose (ts, id) is minimal among all
   pending messages (any stage). The index keeps that minimum at its root,
   so each attempt is O(log pending) instead of a full fold. *)
let rec adelivery_test t =
  match Pending_index.min_elt t.ord with
  | Some (_, _, p) when p.stage = Stage.S3 ->
    ignore (Pending_index.pop_min t.ord);
    Slab.Row.release t.prop_pool p.proposals;
    Msg_id.Tbl.remove t.pending p.msg.id;
    Msg_id.Tbl.replace t.adelivered p.msg.id ();
    t.deliver p.msg;
    adelivery_test t
  | Some _ | None -> ()

(* Line 14-17: propose all pending s0/s2 messages to instance K. The
   [proposable] table holds exactly that subset, so the snapshot is linear
   in the proposal size, not in the whole pending table.

   With [pipeline = w > 1], up to [w] instances K..K+w-1 may be undecided
   at once: each further instance proposes the proposable entries not
   already riding an in-flight instance ([inflight < K]), so instance i+1
   starts before i decides. Decisions still apply strictly in K order
   (process_decisions consumes exactly instance K), and a clock jump
   abandons overtaken instances via the consensus [note_consumed]
   contract. With [w = 1] the loop body runs at most once, proposing the
   full proposable set to instance K — the pre-pipelining behaviour. *)
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

(* The largest proposal from the other destination groups, or [None]
   while one of them is still missing. *)
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

(* Line 33-40: once proposals from every other destination group are in,
   either skip to s3 (our proposal is the maximum) or adopt the maximum
   and run a second consensus (stage s2). *)
let check_s1 t (p : pending) =
  if p.stage = Stage.S1 then
    match max_other_proposal t p with
    | Some max_other ->
      if t.config.skip_max_group && p.ts >= max_other then begin
        move t p ~ts:p.ts ~stage:Stage.S3; (* second consensus not needed *)
        adelivery_test t
      end
      else begin
        move t p ~ts:(max p.ts max_other) ~stage:Stage.S2;
        try_propose t
      end
    | None -> ()

(* Line 18-32: interpret the decision of instance K. Each entry moves its
   message and returns its contribution to the clock jump. *)
let rec process_decisions t =
  match Slab.Window.take t.decisions t.k with
  | None -> ()
  | Some entries ->
    let k = t.k in
    t.cons_executed <- t.cons_executed + 1;
    let moved_to_s1 = ref [] in
    let apply (e : entry) =
      if Msg_id.Tbl.mem t.adelivered e.msg.id then e.ts
      else
        let p = get_or_create_pending t e.msg in
        if e.stage = Stage.S0 && p.stage <> Stage.S0 then
          (* Pipelined duplicate: two in-flight instances can both carry
             m at stage s0 (proposed by members with different R-delivery
             timing). Only the first decide assigns the group timestamp;
             reprocessing would advance it after the proposal exchange
             already left and desynchronise the final timestamps across
             groups. Every member skips identically: stage >= s1 holds iff
             an earlier instance s0-decided m, and decisions apply in the
             same order everywhere. [e.ts] is part of the decided value,
             so the clock-jump contribution is deterministic too. *)
          e.ts
        else if Msg.is_single_group e.msg && t.config.skip_single_group
        then begin
          (* Single-group message: its group is the only proposer, the
             instance number is final — straight to s3 (line 28-29). *)
          move t p ~ts:k ~stage:Stage.S3;
          k
        end
        else
          match e.stage with
          | Stage.S0 ->
            (* Group proposal for m's timestamp is the instance number. *)
            move t p ~ts:k ~stage:Stage.S1;
            moved_to_s1 := p :: !moved_to_s1;
            k
          | Stage.S2 ->
            (* Clock pushed past the final timestamp: m is ready. *)
            move t p ~ts:e.ts ~stage:Stage.S3;
            e.ts
          | Stage.S1 | Stage.S3 -> assert false
    in
    let max_ts = List.fold_left (fun acc e -> max acc (apply e)) 0 entries in
    if !moved_to_s1 <> [] then
      t.on_s0_decided k (List.rev_map (fun p -> p.msg) !moved_to_s1);
    (* Line 31: K <- max(max ts decided, K) + 1. *)
    t.k <- max max_ts t.k + 1;
    (* A clock jump abandons any decided-but-unprocessed instances it
       overtakes (pipelining): every member jumps identically, so these
       decisions are consumed by nobody — drop them before they leak. *)
    for i = k + 1 to t.k - 1 do
      Slab.Window.drop t.decisions i
    done;
    (* The group clock can jump past unproposed instance numbers (every
       member follows the same K sequence, so the gaps are never filled);
       let the consensus GC watermark advance across them. *)
    Consensus.Paxos.note_consumed (cons t) ~upto:(t.k - 1);
    (* Proposals buffered while we were deciding may complete stage s1. *)
    List.iter (check_s1 t) !moved_to_s1;
    adelivery_test t;
    try_propose t;
    process_decisions t

(* R-Delivery of a batch: every message enters stage s0 {e before} the
   single proposal attempt, so the whole batch rides one consensus
   snapshot instead of the first message triggering a proposal that
   splits it. *)
let note_batch t msgs =
  let fresh =
    List.fold_left
      (fun fresh (m : Msg.t) ->
        if Msg_id.Tbl.mem t.pending m.id || Msg_id.Tbl.mem t.adelivered m.id
        then fresh
        else begin
          ignore (create_pending t m);
          true
        end)
      false msgs
  in
  if fresh then try_propose t

let cast t (m : Msg.t) = Batcher.add (batcher t) m

let proposal t ~from_group ~ts (msg : Msg.t) =
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
    check_s1 t p
  end

let on_rm t ~src m = Rmcast.Reliable_multicast.handle (rm t) ~src m
let on_cons t ~src m = Consensus.Paxos.handle (cons t) ~src m

let on_hb t ~src m =
  match t.hb with
  | Some hb -> Fd.Heartbeat.handle hb ~src m
  | None -> ()

let create ~services ~config ~deliver ~rm:wrap_rm ~cons:wrap_cons
    ~hb:wrap_hb ?on_crash ~on_s0_decided () =
  let my_group = Services.my_group services in
  let topology = services.Services.topology in
  let t =
    {
      config;
      deliver;
      on_s0_decided;
      my_group;
      k = 1;
      prop_k = 1;
      pending = Msg_id.Tbl.create 64;
      ord = Pending_index.create ();
      proposable = Msg_id.Tbl.create 64;
      adelivered = Msg_id.Tbl.create 64;
      decisions = Slab.Window.create ();
      prop_pool = Slab.Row.pool ~width:(Topology.n_groups topology) ~default:0;
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
      let h =
        Fd.Heartbeat.create ~services ~wrap:wrap_hb
          ~monitored:(Topology.members topology my_group)
          ~period ~timeout ()
      in
      t.hb <- Some h;
      Fd.Heartbeat.detector h
  in
  Option.iter
    (services.Services.on_crash_detected
       ~delay:config.Protocol.Config.oracle_delay)
    on_crash;
  t.rm <-
    Some
      (Rmcast.Reliable_multicast.create ~services ~wrap:wrap_rm
         ~mode:config.Protocol.Config.rm_mode
         ~oracle_delay:config.Protocol.Config.oracle_delay
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
           (* One R-MCast carries the whole batch; its id is the first
              message's (globally unique, and with a singleton batch this
              is exactly the unbatched dissemination). [key] is the shared
              normalized destination-group list, so the pid fan-out equals
              each message's own [Msg.dest_pids]. *)
           let first = List.hd msgs in
           Rmcast.Reliable_multicast.rmcast (rm t) ~id:first.Msg.id
             ~dest:(Topology.pids_of_groups topology key)
             msgs));
  t.cons <-
    Some
      (Consensus.Paxos.create ~services ~wrap:wrap_cons
         ~participants:(Topology.members topology my_group)
         ~detector
         ~timeout:config.Protocol.Config.consensus_timeout
         ~on_decide:(fun ~instance v ->
           (* A decide for an instance the group clock already jumped past
              is for an abandoned instance — consumed by nobody. *)
           if instance >= t.k then begin
             Slab.Window.set t.decisions instance v;
             process_decisions t
           end)
         ());
  t

let pending_count t = Msg_id.Tbl.length t.pending
let clock t = t.k
let consensus_instances_executed t = t.cons_executed

let stats t =
  [
    ("cons.instances", Consensus.Paxos.retained_instances (cons t));
    ("rm.entries", Rmcast.Reliable_multicast.retained_entries (rm t));
    ("rm.tombstones", Rmcast.Reliable_multicast.reclaimed_entries (rm t));
    ("pending", Msg_id.Tbl.length t.pending);
    ("batches_formed", Batcher.batches_formed (batcher t));
    ("batched_casts", Batcher.casts_packed (batcher t));
    ("casts_per_batch_max", Batcher.max_batch (batcher t));
    ("pipeline_depth_max", t.depth_max);
    ("acks_coalesced", Rmcast.Reliable_multicast.acks_coalesced (rm t));
  ]
