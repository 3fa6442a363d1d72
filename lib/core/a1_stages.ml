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
  mutable in_prop : bool; (* in [prop], i.e. in stage s0 or s2 *)
  proposals : int Slab.Row.t;
      (* foreign groups' timestamp proposals, indexed by gid; pooled —
         released back to [prop_pool] at adelivery *)
}

type 'w t = {
  config : Protocol.Config.t;
  deliver : Msg.t -> unit;
  on_s0_decided : int -> Msg.t array -> int -> unit;
  my_group : Topology.gid;
  mutable k : int; (* K: group-clock copy = next consensus instance *)
  mutable prop_k : int; (* no two proposals for the same instance *)
  pending : pending Msg_id.Tbl.t;
  ord : pending Pending_index.t; (* pending, ordered by (ts, id) *)
  mutable prop : pending array;
      (* the s0/s2 subset of [pending] in [prop.(0 .. n_prop-1)], sorted
         by id; every cell past [n_prop] holds [prop_none] *)
  mutable n_prop : int;
  prop_none : pending;
      (* this instance's filler for [prop]'s free cells, and the sentinel
         the pending-table and index lookups return for "absent" *)
  mutable moved : pending array;
      (* scratch of [process_decisions]: the messages the instance being
         applied moved to s1, in [moved.(0 .. n_moved-1)] *)
  mutable n_moved : int;
  mutable moved_msgs : Msg.t array; (* their messages, for the hook *)
  adelivered : unit Msg_id.Tbl.t;
  decisions : entry list Consensus.Window.t; (* decided, not yet processed *)
  prop_pool : int Slab.Row.pool; (* proposal rows, width = n_groups *)
  stack : (entry list, 'w) Group_stack.t;
  mutable cons_executed : int;
  mutable depth_max : int; (* max in-flight instances (pipelining) *)
}

(* The immutable parts of every instance's [prop_none]: it is never
   pending, so nothing reads or writes its row. *)
let no_msg =
  { Msg.id = Msg_id.make ~origin:(-1) ~seq:(-1); dest = []; payload = "" }

let no_proposals = Slab.Row.acquire (Slab.Row.pool ~width:1 ~default:0)

(* The position of the first entry of [prop] whose id is not below
   [id]. *)
let prop_search t (id : Msg_id.t) =
  let lo = ref 0 and hi = ref t.n_prop in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Msg_id.compare t.prop.(mid).msg.id id < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let prop_add t (p : pending) =
  if not p.in_prop then begin
    p.in_prop <- true;
    let n = t.n_prop in
    if n = Array.length t.prop then begin
      let np = Array.make (Int.max 16 (2 * n)) t.prop_none in
      Array.blit t.prop 0 np 0 n;
      t.prop <- np
    end;
    let i = prop_search t p.msg.id in
    Array.blit t.prop i t.prop (i + 1) (n - i);
    t.prop.(i) <- p;
    t.n_prop <- n + 1
  end

let prop_remove t (p : pending) =
  if p.in_prop then begin
    p.in_prop <- false;
    let i = prop_search t p.msg.id in
    let n = t.n_prop - 1 in
    Array.blit t.prop (i + 1) t.prop i (n - i);
    t.prop.(n) <- t.prop_none;
    t.n_prop <- n
  end

(* Every stage/timestamp transition goes through here so the ordered index
   and the proposable subset can never drift from the pending table. *)
let move t (p : pending) ~ts ~stage =
  if ts <> p.ts then begin
    p.ts <- ts;
    p.handle <- Pending_index.reposition t.ord p.handle ~ts ~id:p.msg.id p
  end;
  p.stage <- stage;
  match stage with
  | Stage.S0 | Stage.S2 -> prop_add t p
  | Stage.S1 | Stage.S3 -> prop_remove t p

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
      in_prop = false;
      proposals = Slab.Row.acquire t.prop_pool;
    }
  in
  p.handle <- Pending_index.add t.ord ~ts:p.ts ~id:m.id p;
  Msg_id.Tbl.replace t.pending m.id p;
  prop_add t p;
  p

(* The pending entry of [id], or [t.prop_none]. *)
let find_pending t id = Msg_id.Tbl.find_or t.pending id ~default:t.prop_none

let get_or_create_pending t (m : Msg.t) =
  let p = find_pending t m.id in
  if p != t.prop_none then p else create_pending t m

(* Line 4-7: deliver every s3 message whose (ts, id) is minimal among all
   pending messages (any stage). The index keeps that minimum at its root,
   so each attempt is O(log pending) instead of a full fold. *)
let rec adelivery_test t =
  let p = Pending_index.top t.ord ~none:t.prop_none in
  if p != t.prop_none && p.stage = Stage.S3 then begin
    Pending_index.drop_top t.ord;
    Slab.Row.release t.prop_pool p.proposals;
    Msg_id.Tbl.remove t.pending p.msg.id;
    Msg_id.Tbl.replace t.adelivered p.msg.id ();
    t.deliver p.msg;
    adelivery_test t
  end

(* Line 14-17: propose all pending s0/s2 messages to instance K. [prop]
   holds exactly that subset in id order, so one backward scan builds the
   snapshot in id order, linear in the subset, not in the whole pending
   table.

   With [pipeline = w > 1], up to [w] instances K..K+w-1 may be undecided
   at once: each further instance proposes the proposable entries not
   already riding an in-flight instance ([inflight < K]), so instance i+1
   starts before i decides. Decisions still apply strictly in K order
   (process_decisions consumes exactly instance K), and a clock jump
   abandons overtaken instances via the consensus [note_consumed]
   contract. With [w = 1] the loop body runs at most once, proposing the
   full proposable set to instance K — the pre-pipelining behaviour. *)
let try_propose t =
  let w = Int.max 1 t.config.Protocol.Config.pipeline in
  if t.prop_k < t.k then t.prop_k <- t.k;
  let continue = ref (t.n_prop > 0) in
  while !continue && t.prop_k <= t.k + w - 1 do
    let snapshot = ref [] in
    for i = t.n_prop - 1 downto 0 do
      let p = t.prop.(i) in
      if p.inflight < t.k then begin
        p.inflight <- t.prop_k;
        snapshot := { msg = p.msg; ts = p.ts; stage = p.stage } :: !snapshot
      end
    done;
    match !snapshot with
    | [] -> continue := false
    | snapshot ->
      Consensus.Paxos.propose t.stack.cons ~instance:t.prop_k snapshot;
      t.prop_k <- t.prop_k + 1;
      let depth = t.prop_k - t.k in
      if depth > t.depth_max then t.depth_max <- depth
  done

(* Whether every other destination group's proposal is in. *)
let rec others_in my_group proposals = function
  | [] -> true
  | g :: rest ->
    (g = my_group || Slab.Row.mem proposals g)
    && others_in my_group proposals rest

(* The largest proposal from the other destination groups, once
   [others_in] holds. *)
let rec max_other my_group proposals acc = function
  | [] -> acc
  | g :: rest ->
    let acc =
      if g = my_group then acc
      else Int.max acc (Slab.Row.get proposals ~default:min_int g)
    in
    max_other my_group proposals acc rest

(* Line 33-40: once proposals from every other destination group are in,
   either skip to s3 (our proposal is the maximum) or adopt the maximum
   and run a second consensus (stage s2). The outcome depends only on the
   stage and the proposal row, so a receipt that changes neither (a
   duplicate proposal) has nothing to check. *)
let check_s1 t (p : pending) =
  if p.stage = Stage.S1 && others_in t.my_group p.proposals p.msg.dest then begin
    let max_other = max_other t.my_group p.proposals min_int p.msg.dest in
    if t.config.skip_max_group && p.ts >= max_other then begin
      move t p ~ts:p.ts ~stage:Stage.S3; (* second consensus not needed *)
      adelivery_test t
    end
    else begin
      move t p ~ts:(Int.max p.ts max_other) ~stage:Stage.S2;
      try_propose t
    end
  end

(* Appends [p] to the [moved] scratch, which grows by 16 cells at a
   time and never shrinks. *)
let note_moved t p =
  let n = t.n_moved in
  if n = Array.length t.moved then begin
    t.moved <- Array.append t.moved (Array.make 16 t.prop_none);
    t.moved_msgs <- Array.append t.moved_msgs (Array.make 16 no_msg)
  end;
  t.moved.(n) <- p;
  t.moved_msgs.(n) <- p.msg;
  t.n_moved <- n + 1

(* Line 18-30 for one decided entry of instance [k]: moves its message and
   returns its contribution to the clock jump. *)
let apply_entry t k (e : entry) =
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
    else if Msg.is_single_group e.msg && t.config.skip_single_group then begin
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
        note_moved t p;
        k
      | Stage.S2 ->
        (* Clock pushed past the final timestamp: m is ready. *)
        move t p ~ts:e.ts ~stage:Stage.S3;
        e.ts
      | Stage.S1 | Stage.S3 -> assert false

let rec apply_entries t k max_ts = function
  | [] -> max_ts
  | e :: rest -> apply_entries t k (Int.max max_ts (apply_entry t k e)) rest

(* Line 18-32: interpret the decision of instance K. Each entry moves its
   message and returns its contribution to the clock jump. Nothing here
   reaches back into the kernel before the [moved] scratch is consumed:
   sends leave through the network, and a delivery cannot decide. *)
let rec process_decisions t =
  match Consensus.Window.take t.decisions t.k with
  | None -> ()
  | Some entries ->
    let k = t.k in
    t.cons_executed <- t.cons_executed + 1;
    t.n_moved <- 0;
    let max_ts = apply_entries t k 0 entries in
    let n_moved = t.n_moved in
    if n_moved > 0 then t.on_s0_decided k t.moved_msgs n_moved;
    (* Line 31: K <- max(max ts decided, K) + 1. *)
    t.k <- Int.max max_ts t.k + 1;
    (* A clock jump abandons any decided-but-unprocessed instances it
       overtakes (pipelining): every member jumps identically, so these
       decisions are consumed by nobody — drop them before they leak. *)
    for i = k + 1 to t.k - 1 do
      Consensus.Window.drop t.decisions i
    done;
    (* The group clock can jump past unproposed instance numbers (every
       member follows the same K sequence, so the gaps are never filled);
       let the consensus GC watermark advance across them. *)
    Consensus.Paxos.note_consumed t.stack.cons ~upto:(t.k - 1);
    (* Proposals buffered while we were deciding may complete stage s1;
       the newest move is checked first. *)
    for i = n_moved - 1 downto 0 do
      let p = t.moved.(i) in
      t.moved.(i) <- t.prop_none;
      t.moved_msgs.(i) <- no_msg;
      check_s1 t p
    done;
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

let cast t m = Group_stack.cast t.stack m

(* Records group [from_group]'s proposal for [p]. Only a new one can
   complete s1: a duplicate leaves the row and the stage as they were at
   the last [check_s1]. *)
let note_proposal t p ~from_group ~ts =
  if not (Slab.Row.mem p.proposals from_group) then begin
    Slab.Row.set p.proposals from_group ts;
    check_s1 t p
  end

(* [pending] and [adelivered] are disjoint, and a proposal almost always
   finds its message pending: probe that first, [adelivered] only on a
   miss. *)
let proposal t ~from_group ~ts (msg : Msg.t) =
  let p = find_pending t msg.id in
  if p != t.prop_none then note_proposal t p ~from_group ~ts
  else if not (Msg_id.Tbl.mem t.adelivered msg.id) then begin
    let p = create_pending t msg in
    try_propose t;
    note_proposal t p ~from_group ~ts
  end

let rec proposals t ~from_group ~ts = function
  | [] -> ()
  | m :: rest ->
    proposal t ~from_group ~ts m;
    proposals t ~from_group ~ts rest

(* A decide for an instance the group clock already jumped past is for an
   abandoned instance — consumed by nobody. *)
let on_decide t ~instance v =
  if instance >= t.k then begin
    Consensus.Window.set t.decisions instance v;
    process_decisions t
  end

let create ~services ~config ~deliver ~rm ~cons ~hb ?on_crash ~on_s0_decided
    () =
  let topology = services.Services.topology in
  (* The stack's callbacks reach the kernel, and the kernel holds the
     stack: [lazy] ties the knot. *)
  let rec t =
    lazy
      {
        config;
        deliver;
        on_s0_decided;
        my_group = Services.my_group services;
        k = 1;
        prop_k = 1;
        pending = Msg_id.Tbl.create 64;
        ord = Pending_index.create ();
        prop = [||];
        n_prop = 0;
        moved = [||];
        n_moved = 0;
        moved_msgs = [||];
        prop_none =
          {
            msg = no_msg;
            ts = 0;
            stage = Stage.S3;
            handle = -1;
            inflight = max_int;
            in_prop = false;
            proposals = no_proposals;
          };
        adelivered = Msg_id.Tbl.create 64;
        decisions = Consensus.Window.create ();
        prop_pool =
          Slab.Row.pool ~width:(Topology.n_groups topology) ~default:0;
        stack =
          Group_stack.create ~services ~config ~rm ~cons ~hb ?on_crash
            (* [key] is the batch's normalized destination-group list, so
               the fan-out equals each message's own [Msg.dest_pids]. *)
            ~flush_to:(Topology.pids_of_groups topology)
            ~on_rdeliver:(fun msgs -> note_batch (Lazy.force t) msgs)
            ~on_decide:(fun ~instance v -> on_decide (Lazy.force t) ~instance v)
            ();
        cons_executed = 0;
        depth_max = 0;
      }
  in
  Lazy.force t

let consensus_instances_executed t = t.cons_executed

let stack t = t.stack

let stats t =
  Group_stack.stats t.stack
  @ [
      ("pending", Msg_id.Tbl.length t.pending);
      ("pipeline_depth_max", t.depth_max);
    ]
