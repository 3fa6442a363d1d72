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
  on_s0_decided : int -> Msg.t list -> unit;
  my_group : Topology.gid;
  mutable k : int; (* K: group-clock copy = next consensus instance *)
  mutable prop_k : int; (* no two proposals for the same instance *)
  pending : pending Msg_id.Tbl.t;
  ord : pending Pending_index.t; (* pending, ordered by (ts, id) *)
  mutable prop : pending array;
      (* the s0/s2 subset of [pending] in [prop.(0 .. n_prop-1)], sorted
         by id; every cell past [n_prop] holds [prop_none] *)
  mutable n_prop : int;
  prop_none : pending; (* this instance's filler for [prop]'s free cells *)
  adelivered : unit Msg_id.Tbl.t;
  decisions : entry list Consensus.Window.t; (* decided, not yet processed *)
  prop_pool : int Slab.Row.pool; (* proposal rows, width = n_groups *)
  stack : (entry list, 'w) Group_stack.t;
  mutable cons_executed : int;
  mutable depth_max : int; (* max in-flight instances (pipelining) *)
}

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

(* The largest proposal from the other destination groups, or [None]
   while one of them is still missing. *)
let max_other_proposal t (p : pending) =
  let rec go acc = function
    | [] -> Some acc
    | g :: rest when g = t.my_group -> go acc rest
    | g :: rest ->
      if Slab.Row.mem p.proposals g then
        go (Int.max acc (Slab.Row.get p.proposals ~default:min_int g)) rest
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
        move t p ~ts:(Int.max p.ts max_other) ~stage:Stage.S2;
        try_propose t
      end
    | None -> ()

(* Line 18-32: interpret the decision of instance K. Each entry moves its
   message and returns its contribution to the clock jump. *)
let rec process_decisions t =
  match Consensus.Window.take t.decisions t.k with
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
    let max_ts =
      List.fold_left (fun acc e -> Int.max acc (apply e)) 0 entries
    in
    if !moved_to_s1 <> [] then
      t.on_s0_decided k (List.rev_map (fun p -> p.msg) !moved_to_s1);
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

let cast t m = Group_stack.cast t.stack m

(* [pending] and [adelivered] are disjoint, and a proposal almost always
   finds its message pending: probe that first, [adelivered] only on a
   miss. *)
let proposal t ~from_group ~ts (msg : Msg.t) =
  let p =
    match Msg_id.Tbl.find_opt t.pending msg.id with
    | Some _ as found -> found
    | None when Msg_id.Tbl.mem t.adelivered msg.id -> None
    | None ->
      let p = create_pending t msg in
      try_propose t;
      Some p
  in
  match p with
  | Some p ->
    if not (Slab.Row.mem p.proposals from_group) then
      Slab.Row.set p.proposals from_group ts;
    check_s1 t p
  | None -> ()

(* The immutable parts of every instance's [prop_none]: it is never
   pending, so nothing reads or writes its row. *)
let no_msg =
  { Msg.id = Msg_id.make ~origin:(-1) ~seq:(-1); dest = []; payload = "" }

let no_proposals = Slab.Row.acquire (Slab.Row.pool ~width:1 ~default:0)

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
