open Net
open Runtime

let name = "a2"

type wire =
  | Rm of Msg.t list Rmcast.Reliable_multicast.msg
      (* The R-MCast payload is a batch of casts (a singleton when
         batching is off; the batch id is the first message's id, so the
         unbatched wire pattern is unchanged). *)
  | Bundle of { round : int; msgs : Msg.t list }
  | Cons of Msg.t list Consensus.Paxos.msg
  | Hb of Fd.Heartbeat.msg (* only with Config.fd_mode = Heartbeat *)

let tag = function
  | Rm m -> Rmcast.Reliable_multicast.tag m
  | Bundle _ -> "a2.bundle"
  | Cons c -> Consensus.Paxos.tag c
  | Hb _ -> "fd.ping"

type round_state = {
  mutable own : Msg.t list option; (* our group's decided bundle *)
  mutable own_sent : bool;
  foreign : Msg.t list Slab.Row.t;
      (* first copy wins, indexed by gid; the presence flag distinguishes
         a received empty bundle from no bundle. Pooled — released when
         the round closes. *)
}

type t = {
  services : wire Services.t;
  deliver : Msg.t -> unit;
  round_grace : Des.Sim_time.t;
  prediction : Protocol.Config.prediction;
  mutable empty_streak : int; (* consecutive useless rounds *)
  mutable grace_timer : int option;
  my_group : Topology.gid;
  other_groups : Topology.gid list;
  n_other : int; (* |other_groups|: round completeness is a count check *)
  foreign_pool : Msg.t list Slab.Row.pool; (* bundle rows, width n_groups *)
  outside_pids : Topology.pid list;
  mutable k : int; (* current round *)
  mutable prop_k : int;
  mutable barrier : int;
  rdelivered : Msg.t Msg_id.Tbl.t;
  und : Msg.t Pending_index.t;
      (* R-Delivered but not yet A-Delivered, ordered by id (all keys 0):
         the proposal snapshot, linear in the live backlog rather than in
         every message the run has ever R-Delivered *)
  und_handles : Pending_index.handle Msg_id.Tbl.t;
  adelivered : unit Msg_id.Tbl.t;
  rounds : round_state Consensus.Window.t; (* open rounds, by number *)
  pipeline : int;
  inflight : int Msg_id.Tbl.t;
      (* highest instance each undelivered message was proposed to; the
         pipelining window skips messages with mark >= k (already riding
         an undecided instance). Unused (empty) when [pipeline = 1]. *)
  stack : (Msg.t list, wire) Group_stack.t;
      (* the group's detector, R-MCast, batcher and Paxos; the consensus
         value is the group's bundle *)
  mutable rounds_executed : int;
  mutable depth_max : int; (* max in-flight instances (pipelining) *)
}

let round_state t r =
  match Consensus.Window.find t.rounds r with
  | Some s -> s
  | None ->
    let s =
      {
        own = None;
        own_sent = false;
        foreign = Slab.Row.acquire t.foreign_pool;
      }
    in
    Consensus.Window.set t.rounds r s;
    s

let undelivered t =
  List.map (fun (_, _, m) -> m) (Pending_index.to_sorted_list t.und)

let has_undelivered t = not (Pending_index.is_empty t.und)

(* Line 11-13: start round K when there is something to order or the
   barrier says the round must run anyway. A barrier-mandated round with an
   *empty* proposal waits [round_grace] before proposing, so a broadcast
   landing just after the round opened still joins its bundle — that slack
   is what realises Theorem 5.1's latency-degree-1 schedule, and the
   pseudocode's "When" guards allow any such scheduling. *)
(* Pipelining (w > 1): once instance K is in flight, propose up to w-1
   further instances, each carrying the undelivered messages not already
   riding an undecided instance (mark < K). A message whose instance loses
   it (decided without it) becomes proposable again as soon as K advances
   past its mark, so leftovers ride the next free instance. Decisions
   still apply strictly in round order — [maybe_finish_round] consumes
   exactly round K; [round_state] buffers out-of-order decides. *)
let pipeline_extend t =
  if t.pipeline > 1 then begin
    let continue = ref true in
    while !continue && t.prop_k <= t.k + t.pipeline - 1 do
      let snapshot =
        List.filter
          (fun (m : Msg.t) ->
            match Msg_id.Tbl.find_opt t.inflight m.id with
            | Some mark -> mark < t.k
            | None -> true)
          (undelivered t)
      in
      if snapshot = [] then continue := false
      else begin
        List.iter
          (fun (m : Msg.t) -> Msg_id.Tbl.replace t.inflight m.id t.prop_k)
          snapshot;
        Consensus.Paxos.propose t.stack.cons ~instance:t.prop_k snapshot;
        t.prop_k <- t.prop_k + 1;
        let depth = t.prop_k - t.k in
        if depth > t.depth_max then t.depth_max <- depth
      end
    done
  end

let propose_now t =
  (match t.grace_timer with
  | Some h ->
    t.services.Services.cancel_timer h;
    t.grace_timer <- None
  | None -> ());
  let snapshot = undelivered t in
  if t.pipeline > 1 then
    List.iter
      (fun (m : Msg.t) -> Msg_id.Tbl.replace t.inflight m.id t.k)
      snapshot;
  Consensus.Paxos.propose t.stack.cons ~instance:t.k snapshot;
  t.prop_k <- t.k + 1;
  pipeline_extend t

let try_propose t =
  if t.prop_k <= t.k then begin
    if
      has_undelivered t
      (* Catching up — another group's bundle for this round has already
         arrived (cf. Theorem 5.2's run, where g2 decides instance r as
         soon as it receives g1's bundle): nothing to gain by waiting. *)
      || Slab.Row.count (round_state t t.k).foreign > 0
    then propose_now t
    else if t.k <= t.barrier && t.grace_timer = None then
      t.grace_timer <-
        Some
          (t.services.Services.set_timer ~after:t.round_grace (fun () ->
               t.grace_timer <- None;
               (* Re-check the full guard: the round may have completed
                  without our proposal while we were waiting. *)
               if
                 t.prop_k <= t.k
                 && (has_undelivered t || t.k <= t.barrier)
               then propose_now t))
  end
  else pipeline_extend t

(* Line 14-23: close round K once our bundle is decided and a bundle from
   every other group has arrived. *)
let rec maybe_finish_round t =
  let s = round_state t t.k in
  match s.own with
  | None -> ()
  | Some own_bundle ->
    if not s.own_sent then begin
      s.own_sent <- true;
      Services.send_multi t.services t.outside_pids
        (Bundle { round = t.k; msgs = own_bundle })
    end;
    (* Only other groups' bundles land in [foreign] (bundles fan out to
       [outside_pids]), so a full count means one from each. *)
    let complete = Slab.Row.count s.foreign = t.n_other in
    if complete then begin
      let bundles =
        own_bundle
        :: List.map
             (fun g -> Slab.Row.get s.foreign ~default:[] g)
             t.other_groups
      in
      let to_deliver =
        List.concat bundles
        |> List.filter (fun (m : Msg.t) ->
               not (Msg_id.Tbl.mem t.adelivered m.id))
        |> List.sort_uniq Msg.compare_id
      in
      (* Deterministic order: sorted by message id. *)
      List.iter
        (fun (m : Msg.t) ->
          Msg_id.Tbl.replace t.adelivered m.id ();
          (match Msg_id.Tbl.find_opt t.und_handles m.id with
          | Some h ->
            Pending_index.remove t.und h;
            Msg_id.Tbl.remove t.und_handles m.id
          | None -> ());
          Msg_id.Tbl.remove t.inflight m.id;
          t.deliver m)
        to_deliver;
      Slab.Row.release t.foreign_pool s.foreign;
      Consensus.Window.drop t.rounds t.k;
      t.k <- t.k + 1;
      t.rounds_executed <- t.rounds_executed + 1;
      (* Line 22-23: a useful round schedules one more (proactive) round;
         a useless one leaves the barrier alone — the paper's quiescence
         rule. The Linger strategy (Section 5.3's suggested refinement)
         tolerates a bounded streak of useless rounds before stopping. *)
      if to_deliver <> [] then begin
        t.empty_streak <- 0;
        t.barrier <- max t.barrier t.k
      end
      else begin
        t.empty_streak <- t.empty_streak + 1;
        match t.prediction with
        | Protocol.Config.Linger { rounds } when t.empty_streak < rounds ->
          t.barrier <- max t.barrier t.k
        | Protocol.Config.Linger _ | Protocol.Config.Stop_when_idle -> ()
      end;
      try_propose t;
      maybe_finish_round t
    end

let note_rdelivered t (m : Msg.t) =
  if not (Msg_id.Tbl.mem t.rdelivered m.id) then begin
    Msg_id.Tbl.replace t.rdelivered m.id m;
    if not (Msg_id.Tbl.mem t.adelivered m.id) then
      Msg_id.Tbl.replace t.und_handles m.id
        (Pending_index.add t.und ~ts:0 ~id:m.id m);
    true
  end
  else false

(* R-Delivery of a batch: every message joins the undelivered backlog
   {e before} the single proposal attempt, so the whole batch rides one
   round instead of the first message triggering a proposal that splits
   it. *)
let on_rdeliver t msgs =
  let fresh =
    List.fold_left
      (fun acc m ->
        let f = note_rdelivered t m in
        f || acc)
      false msgs
  in
  if fresh then try_propose t

let cast_payload_only t m = Group_stack.cast t.stack m

let cast t (m : Msg.t) =
  if
    List.length m.dest
    <> Topology.n_groups t.services.Services.topology
  then
    invalid_arg
      "A2.cast: atomic broadcast requires dest = all groups (use A1 or \
       Via_broadcast for multicast)";
  cast_payload_only t m

let on_receive t ~src w =
  match w with
  | Rm rmsg -> Group_stack.on_rm t.stack ~src rmsg
  | Bundle { round; msgs } ->
    (* Line 8-10: store the bundle and raise the barrier. *)
    let g = Topology.group_of t.services.Services.topology src in
    if round >= t.k then begin
      let s = round_state t round in
      if not (Slab.Row.mem s.foreign g) then Slab.Row.set s.foreign g msgs
    end;
    t.barrier <- max t.barrier round;
    try_propose t;
    maybe_finish_round t
  | Cons cmsg -> Group_stack.on_cons t.stack ~src cmsg
  | Hb m -> Group_stack.on_hb t.stack ~src m

let on_decide t ~instance v =
  let s = round_state t instance in
  if s.own = None then s.own <- Some v;
  maybe_finish_round t

let create ~services ~config ~deliver =
  let topology = services.Services.topology in
  let my_group = Services.my_group services in
  let other_groups =
    List.filter (fun g -> g <> my_group) (Topology.all_groups topology)
  in
  (* The stack's callbacks reach the protocol state, and the state holds
     the stack: [lazy] ties the knot. *)
  let rec t =
    lazy
      {
        services;
        deliver;
        round_grace = config.Protocol.Config.round_grace;
        prediction = config.Protocol.Config.prediction;
        empty_streak = 0;
        grace_timer = None;
        my_group;
        other_groups;
        n_other = List.length other_groups;
        foreign_pool =
          Slab.Row.pool ~width:(Topology.n_groups topology) ~default:[];
        outside_pids = Topology.pids_of_groups topology other_groups;
        k = 1;
        prop_k = 1;
        barrier = 0;
        rdelivered = Msg_id.Tbl.create 64;
        und = Pending_index.create ();
        und_handles = Msg_id.Tbl.create 64;
        adelivered = Msg_id.Tbl.create 64;
        rounds = Consensus.Window.create ();
        pipeline = max 1 config.Protocol.Config.pipeline;
        inflight = Msg_id.Tbl.create 64;
        stack =
          Group_stack.create ~services ~config
            ~rm:(fun m -> Rm m)
            ~cons:(fun m -> Cons m)
            ~hb:(fun m -> Hb m)
            (* Line 4-5: R-MCast to the caster's own group only. *)
            ~flush_to:(fun _ -> Topology.members topology my_group)
            ~on_rdeliver:(fun msgs -> on_rdeliver (Lazy.force t) msgs)
            ~on_decide:(fun ~instance v -> on_decide (Lazy.force t) ~instance v)
            ();
        rounds_executed = 0;
        depth_max = 0;
      }
  in
  Lazy.force t

let round t = t.k
let barrier t = t.barrier
let rounds_executed t = t.rounds_executed

let stats t =
  Group_stack.stats t.stack
  @ [
      ("pending", Pending_index.size t.und);
      ("rounds", Consensus.Window.live t.rounds);
      ("pipeline_depth_max", t.depth_max);
    ]
