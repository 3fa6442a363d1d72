open Des
open Net

type 'v msg =
  | Suggest of { instance : int; value : 'v }
      (* Proposal forwarding: a non-coordinator hands its input to the
         current coordinator so that a coordinator with no local input can
         still drive the instance. *)
  | Prepare of { instance : int; ballot : int }
  | Promise of {
      instance : int;
      ballot : int;
      accepted : (int * 'v) option;
    }
  | Accept of { instance : int; ballot : int; value : 'v }
  | Accepted of { instance : int; ballot : int; wm : int }
      (* [wm]: the sender's decided-prefix watermark, piggybacked so the
         coordinator can compute a safe garbage-collection floor. *)
  | Decide of { instance : int; value : 'v; floor : int }
      (* [floor]: every participant may prune decided instances up to
         [min floor own_watermark]. *)
  | Lease_prepare of { ballot : int }
      (* Multi-Paxos coordinator lease: one prepare covering ALL instances.
         A majority of promises lets the leader skip phase 1 per instance. *)
  | Lease_promise of { ballot : int; accepted : (int * int * 'v) list }
      (* Per-instance accepted state ((instance, ballot, value)) of the
         promising acceptor, for every instance it still holds. *)

let tag = function
  | Suggest _ -> "cons.suggest"
  | Prepare _ -> "cons.prepare"
  | Promise _ -> "cons.promise"
  | Accept _ -> "cons.accept"
  | Accepted _ -> "cons.accepted"
  | Decide _ -> "cons.decide"
  | Lease_prepare _ -> "cons.lease_prepare"
  | Lease_promise _ -> "cons.lease_promise"

let pp_msg ppf m =
  match m with
  | Suggest { instance; _ } -> Fmt.pf ppf "suggest(i%d)" instance
  | Prepare { instance; ballot } ->
    Fmt.pf ppf "prepare(i%d,b%d)" instance ballot
  | Promise { instance; ballot; accepted } ->
    Fmt.pf ppf "promise(i%d,b%d,%s)" instance ballot
      (match accepted with None -> "-" | Some (b, _) -> Fmt.str "acc@%d" b)
  | Accept { instance; ballot; _ } ->
    Fmt.pf ppf "accept(i%d,b%d)" instance ballot
  | Accepted { instance; ballot; wm } ->
    Fmt.pf ppf "accepted(i%d,b%d,wm%d)" instance ballot wm
  | Decide { instance; floor; _ } ->
    Fmt.pf ppf "decide(i%d,f%d)" instance floor
  | Lease_prepare { ballot } -> Fmt.pf ppf "lease_prepare(b%d)" ballot
  | Lease_promise { ballot; accepted } ->
    Fmt.pf ppf "lease_promise(b%d,%d inst)" ballot (List.length accepted)

(* Participants that sent [Accepted] for one ballot, as a presence byte per
   rank. An instance keeps a short list of these, newest first; the steady
   state has exactly one. *)
type ballot_votes = { ballot : int; seen : Bytes.t; mutable count : int }

type 'v instance = {
  mutable proposal : 'v option; (* local input or adopted suggestion *)
  mutable promised : int; (* acceptor: highest ballot promised *)
  mutable accepted : (int * 'v) option; (* acceptor: last accepted *)
  mutable decided : 'v option;
  (* Coordinator state for the ballot we lead (leading >= 0). *)
  mutable leading : int;
  mutable phase1_done : bool;
  mutable pushed : bool; (* Accept for ballot [leading] was sent *)
  (* Promises for ballot [leading], indexed by participant rank: a presence
     byte and the promiser's accepted state. Both arrays stay empty until
     the instance's first promise (only coordinators ever receive one). *)
  mutable promised_by : Bytes.t;
  mutable promise_acc : (int * 'v) option array;
  mutable n_promises : int;
  mutable votes : ballot_votes list;
  mutable ballot_values : (int * 'v) list;
      (* value per ballot; a ballot carries a single value, so an entry is
         never overwritten *)
  mutable timer : int option;
  mutable reprepares : int; (* [Prepare] re-sends for ballot [leading] *)
}

type ('v, 'w) t = {
  services : 'w Runtime.Services.t;
  wrap : 'v msg -> 'w;
  participants : Topology.pid array; (* sorted *)
  participants_list : Topology.pid list; (* cached Array.to_list *)
  self_rank : int; (* cached rank of the local process; -1 if not one *)
  detector : Fd.Detector.t;
  timeout : Sim_time.t;
  all_to_all : bool;
  on_decide : instance:int -> 'v -> unit;
  instances : 'v instance Window.t;
  mutable decided_upto : int;
      (* watermark: every instance <= this is locally decided or (per the
         host's [note_consumed] contract) will never be proposed *)
  mutable pruned_upto : int; (* instances <= this removed from the table *)
  mutable remote_floor : int; (* highest floor advertised in a [Decide] *)
  peer_wm : int array; (* per-rank watermark gleaned from [Accepted] *)
  mutable lease_ballot : int; (* ballot we hold a coordinator lease for *)
  mutable lease_pending : int; (* ballot we are acquiring a lease for *)
  lease_promised_by : Bytes.t; (* per rank: granted [lease_pending] *)
  mutable n_lease_promises : int;
  mutable promise_floor : int;
      (* acceptor: lease promise, applies to every instance *)
  mutable max_ballot_seen : int;
}

let n t = Array.length t.participants
let majority t = (n t / 2) + 1

let rank t pid =
  let rec find i =
    if i = Array.length t.participants then -1
    else if t.participants.(i) = pid then i
    else find (i + 1)
  in
  find 0

let leader t = Fd.Detector.leader t.detector t.participants_list
let self t = t.services.Runtime.Services.self

let is_leader t =
  match leader t with Some l -> l = self t | None -> false
let coordinator_of t ballot = t.participants.(ballot mod n t)

(* Witness a ballot owned by someone else's message: a strictly higher
   ballot in the system invalidates any coordinator lease we hold or are
   acquiring (its phase-1 guarantee no longer covers new instances). *)
let note_ballot t b =
  if b > t.max_ballot_seen then t.max_ballot_seen <- b;
  if t.lease_ballot >= 0 && b > t.lease_ballot then t.lease_ballot <- -1;
  if t.lease_pending >= 0 && b > t.lease_pending then t.lease_pending <- -1

(* [found] is the result of the caller's lookup of [i], so a message costs
   one table probe whether or not it creates the instance. *)
let instance_of t i found =
  match found with
  | Some inst -> inst
  | None ->
    let inst =
      {
        proposal = None;
        promised = -1;
        accepted = None;
        decided = None;
        leading = -1;
        phase1_done = false;
        pushed = false;
        promised_by = Bytes.empty;
        promise_acc = [||];
        n_promises = 0;
        votes = [];
        ballot_values = [];
        timer = None;
        reprepares = 0;
      }
    in
    Window.set t.instances i inst;
    inst

let get_instance t i = instance_of t i (Window.find t.instances i)

(* Set rank [r]'s presence byte; true iff it was clear. *)
let mark seen r =
  if Bytes.get seen r = '\000' then begin
    Bytes.set seen r '\001';
    true
  end
  else false

(* Record rank [r]'s promise for the ballot being led. *)
let add_promise t inst r acc =
  if r >= 0 then begin
    if Bytes.length inst.promised_by = 0 then begin
      inst.promised_by <- Bytes.make (n t) '\000';
      inst.promise_acc <- Array.make (n t) None
    end;
    if mark inst.promised_by r then inst.n_promises <- inst.n_promises + 1;
    inst.promise_acc.(r) <- acc
  end

let clear_promises inst =
  if inst.n_promises > 0 then begin
    Bytes.fill inst.promised_by 0 (Bytes.length inst.promised_by) '\000';
    Array.fill inst.promise_acc 0 (Array.length inst.promise_acc) None;
    inst.n_promises <- 0
  end

(* Ballots are immediate ints, so the physical-equality [assq] family
   matches keys exactly without the polymorphic compare. *)
let note_ballot_value inst ballot v =
  if not (List.mem_assq ballot inst.ballot_values) then
    inst.ballot_values <- (ballot, v) :: inst.ballot_values

(* Acceptor's effective promise: the per-instance one, raised to the lease
   floor (a lease promise covers every instance). *)
let eff_promised t inst = Int.max inst.promised t.promise_floor

let send_participants t m =
  let w = t.wrap m in
  if t.all_to_all then
    Runtime.Services.send_all t.services t.participants_list w
  else Runtime.Services.send_multi t.services t.participants_list w

let cancel_timer t inst =
  match inst.timer with
  | Some h ->
    t.services.cancel_timer h;
    inst.timer <- None
  | None -> ()

(* Contiguous decided prefix (hosts number instances from 1; gaps stall
   the watermark until the host calls [note_consumed]). *)
let advance_decided_upto t =
  let continue = ref true in
  while !continue do
    match Window.find t.instances (t.decided_upto + 1) with
    | Some inst when inst.decided <> None ->
      t.decided_upto <- t.decided_upto + 1
    | _ -> continue := false
  done

(* Highest instance every non-suspected participant is known to have
   decided past — the only safe pruning bound: under an accurate detector
   no live peer can still need an instance at or below it. *)
let gc_floor t =
  let m = ref t.decided_upto in
  for r = 0 to n t - 1 do
    (* The cheap watermark test first: only a peer that would lower the
       floor needs the detector's verdict. *)
    let p = t.participants.(r) in
    if
      t.peer_wm.(r) < !m
      && p <> self t
      && not (t.detector.Fd.Detector.suspects p)
    then m := t.peer_wm.(r)
  done;
  Int.min t.decided_upto (Int.max !m t.remote_floor)

(* [gc_floor] never exceeds [decided_upto], so nothing is prunable until
   the watermark passes [pruned_upto]. *)
let maybe_gc t =
  if t.decided_upto > t.pruned_upto then begin
    let f = gc_floor t in
    while t.pruned_upto < f do
      let i = t.pruned_upto + 1 in
      (* An instance can still carry a live timer here when a pipelining
         host abandoned it mid-flight; dropping the record without
         cancelling would leave an orphan timer re-arming forever. *)
      (match Window.take t.instances i with
      | Some inst -> cancel_timer t inst
      | None -> ());
      t.pruned_upto <- i
    done
  end

let decide ?(announce = true) t i inst v =
  if inst.decided = None then begin
    inst.decided <- Some v;
    cancel_timer t inst;
    advance_decided_upto t;
    if announce then
      (* All-to-all: one Decide broadcast per decider, then silence —
         keeps the protocol halting while guaranteeing uniform agreement
         under lossy crashes. Coordinator-only: only the coordinator (the
         unique vote counter) announces; stragglers recover through their
         timers and point-to-point Decide replies. *)
      send_participants t
        (Decide { instance = i; value = v; floor = gc_floor t });
    t.on_decide ~instance:i v;
    maybe_gc t
  end

(* Value a coordinator must push after phase 1: the accepted value carried
   by the highest ballot among the promises, else its own input. *)
let choose_value inst =
  let best = ref None in
  for r = 0 to Array.length inst.promise_acc - 1 do
    match (inst.promise_acc.(r), !best) with
    | Some (b, _), Some (b', _) when b <= b' -> ()
    | (Some _ as acc), _ -> best := acc
    | None, _ -> ()
  done;
  match !best with Some (_, v) -> Some v | None -> inst.proposal

let rec votes_of ballot = function
  | [] -> None
  | v :: rest -> if v.ballot = ballot then Some v else votes_of ballot rest

let add_vote t inst ballot r =
  if r >= 0 then begin
    let v =
      match votes_of ballot inst.votes with
      | Some v -> v
      | None ->
        let v = { ballot; seen = Bytes.make (n t) '\000'; count = 0 } in
        inst.votes <- v :: inst.votes;
        v
    in
    if mark v.seen r then v.count <- v.count + 1
  end

let maybe_decide_from_votes t i inst ballot =
  if inst.decided = None then
    match votes_of ballot inst.votes with
    | Some v when v.count >= majority t -> (
      match List.assq_opt ballot inst.ballot_values with
      | Some value -> decide t i inst value
      | None -> () (* value not learned yet; the Accept will arrive *))
    | Some _ | None -> ()

let accept_locally t i inst ~ballot ~value =
  inst.promised <- Int.max inst.promised ballot;
  inst.accepted <- Some (ballot, value);
  note_ballot_value inst ballot value;
  let m = Accepted { instance = i; ballot; wm = t.decided_upto } in
  if t.all_to_all then send_participants t m
  else
    (* Single-shot vote: only the ballot's coordinator counts votes and
       announces, so an instance costs n Accepted messages, not n². *)
    t.services.Runtime.Services.send ~dst:(coordinator_of t ballot) (t.wrap m)

let start_accept_phase t i inst ~value =
  inst.pushed <- true;
  note_ballot_value inst inst.leading value;
  send_participants t (Accept { instance = i; ballot = inst.leading; value })

(* Push the accept phase if phase 1 is complete and a value is available. *)
let try_push t i inst =
  if inst.phase1_done && not inst.pushed && inst.decided = None then
    match choose_value inst with
    | Some v -> start_accept_phase t i inst ~value:v
    | None -> ()

(* The smallest ballot above [floor] owned by the local process (ballot
   [b] belongs to rank [b mod n]). *)
let own_ballot_above t floor =
  let rec find k =
    let candidate = (k * n t) + t.self_rank in
    if candidate > floor then candidate else find (k + 1)
  in
  find 0

(* Take over coordination with a fresh ballot owned by the local process. *)
let start_new_ballot t i inst =
  if inst.decided = None && t.self_rank >= 0 then begin
    let b =
      own_ballot_above t
        (Int.max
           (Int.max inst.promised inst.leading)
           (Int.max t.promise_floor t.max_ballot_seen))
    in
    inst.leading <- b;
    inst.reprepares <- 0;
    inst.phase1_done <- false;
    inst.pushed <- false;
    clear_promises inst;
    if b = 0 then begin
      (* Ballot 0 fast path: no smaller ballot exists, so phase 1 is
         vacuous; push straight away if we have an input. *)
      inst.phase1_done <- true;
      try_push t i inst
    end
    else send_participants t (Prepare { instance = i; ballot = b })
  end

let suggest_to_leader t i inst =
  match leader t with
  | Some l when l <> self t -> (
    let v =
      match inst.proposal with
      | Some _ as v -> v
      | None ->
        (* An acceptor stuck with accepted-but-undecided state (e.g. the
           coordinator's Decide was lost) re-offers that value so the
           leader can finish the instance. *)
        Option.map snd inst.accepted
    in
    match v with
    | Some v ->
      t.services.send ~dst:l (t.wrap (Suggest { instance = i; value = v }))
    | None -> ())
  | _ -> ()

(* A leader's answer to a decision timeout. While its ballot is still in
   phase 1 and no higher ballot is known, it re-sends the ballot's
   [Prepare] and keeps the promises it has, at up to [2^r] timeouts in a
   row for a ballot of round [r] (ballot / n, capped), before it opens a
   higher ballot. Opening one at every timeout livelocks
   once a round trip reaches the timeout: the timer pops just before the
   promises of the ballot it was armed for, and each new ballot discards
   them. Keeping the ballot lets them land. Each ballot a coordinator
   opens has a higher round than its last, so the patience grows and
   outwaits any finite round trip, and the eventual new ballot gets past
   a higher ballot this coordinator never heard of (its [Prepare] lost
   with a crashed coordinator), for which the acceptors holding it
   ignore ours. *)
let max_patience = 6

let retry t i inst =
  if
    inst.leading >= 0
    && (not inst.phase1_done)
    && inst.leading >= Int.max inst.promised t.max_ballot_seen
    && inst.reprepares < 1 lsl Int.min (inst.leading / n t) max_patience
  then begin
    inst.reprepares <- inst.reprepares + 1;
    send_participants t (Prepare { instance = i; ballot = inst.leading })
  end
  else start_new_ballot t i inst

let rec arm_timer t i inst =
  if inst.timer = None && inst.decided = None then
    inst.timer <-
      Some
        (t.services.set_timer ~after:t.timeout (fun () ->
             inst.timer <- None;
             if inst.decided = None then begin
               if is_leader t then begin
                 (* A stalled lease acquisition must not block recovery:
                    abandon it and fall back to a per-instance ballot (a
                    later drive re-acquires the lease). *)
                 t.lease_pending <- -1;
                 retry t i inst
               end
               else suggest_to_leader t i inst;
               arm_timer t i inst
             end))

(* --- Multi-Paxos coordinator lease ------------------------------------ *)

(* Drive an instance under the held lease: phase 1 is already covered by
   the lease's majority promise, so push the accept phase directly. Falls
   back to a classic ballot when this instance has individually promised
   past the lease. *)
let lease_push t i inst =
  if inst.decided = None && t.lease_ballot >= 0 then begin
    let b = t.lease_ballot in
    if b >= Int.max inst.promised inst.leading then begin
      if not (inst.pushed && inst.leading = b) then begin
        inst.leading <- b;
        inst.phase1_done <- true;
        inst.pushed <- false;
        if inst.accepted <> None then
          add_promise t inst t.self_rank inst.accepted;
        (match choose_value inst with
        | Some v -> start_accept_phase t i inst ~value:v
        | None -> ());
        arm_timer t i inst
      end
    end
    else start_new_ballot t i inst
  end

(* Hold (or start acquiring) a coordinator lease. Returns true iff a lease
   is currently held; false while an acquisition is in flight (instances
   are driven when the grant arrives, and per-instance timers cover loss). *)
let ensure_lease t =
  t.lease_ballot >= 0
  ||
  if t.lease_pending >= 0 || t.self_rank < 0 || not (is_leader t) then false
  else begin
    let b = own_ballot_above t (Int.max t.max_ballot_seen t.promise_floor) in
    if b = 0 then begin
      (* Vacuous lease: no smaller ballot can exist anywhere, so the
         phase-1 guarantee holds without any messages — this generalizes
         the per-instance ballot-0 fast path. *)
      t.lease_ballot <- 0;
      t.promise_floor <- Int.max t.promise_floor 0;
      true
    end
    else begin
      t.lease_pending <- b;
      Bytes.fill t.lease_promised_by 0 (n t) '\000';
      (* Self-grant locally; own accepted state joins per-instance
         promises at push time. *)
      t.promise_floor <- Int.max t.promise_floor b;
      Bytes.set t.lease_promised_by t.self_rank '\001';
      t.n_lease_promises <- 1;
      let others = List.filter (fun p -> p <> self t) t.participants_list in
      Runtime.Services.send_multi t.services others
        (t.wrap (Lease_prepare { ballot = b }));
      if t.n_lease_promises >= majority t then begin
        t.lease_pending <- -1;
        t.lease_ballot <- b;
        true
      end
      else false
    end
  end

(* Engaged undecided instances with a pushable value source, in instance
   order; collected before iterating because pushes can decide and prune. *)
let drivable t =
  Window.fold
    (fun i inst acc ->
      if
        inst.decided = None
        && (inst.proposal <> None || inst.accepted <> None
           || inst.n_promises > 0)
      then (i, inst) :: acc
      else acc)
    t.instances []
  |> List.rev

(* Leader-side drive of one instance, used by propose/Suggest paths. *)
let drive_as_leader t i inst =
  if ensure_lease t then lease_push t i inst
  else if t.lease_pending >= 0 then ()
    (* grant in flight: the instance is driven when it lands *)
  else if inst.leading < 0 then start_new_ballot t i inst
  else try_push t i inst

let propose t ~instance v =
  if instance > t.pruned_upto then begin
    let inst = get_instance t instance in
    if inst.decided = None && inst.proposal = None then begin
      inst.proposal <- Some v;
      arm_timer t instance inst;
      if is_leader t then drive_as_leader t instance inst
      else suggest_to_leader t instance inst
    end
  end

let on_suspicion_change t =
  if is_leader t then begin
    match drivable t with
    | [] -> ()
    | targets ->
      if ensure_lease t then
        List.iter (fun (i, inst) -> lease_push t i inst) targets
      (* else: acquisition in flight (instances driven at grant) or we
         cannot lead; per-instance timers cover both. *)
  end
  else
    (* Re-route pending inputs to the new coordinator, in instance
       order. *)
    Window.iter
      (fun i inst ->
        if inst.decided = None && inst.proposal <> None then
          suggest_to_leader t i inst)
      t.instances

(* An instance the watermark has moved past — pruned, or at/below
   the consumed watermark without a recorded decision. The latter covers
   instances the host abandoned mid-flight (a pipelining window skipped
   past by a clock jump) and never-proposed gaps: per the [note_consumed]
   contract they will never be consumed, so stray messages for them must
   be dropped — [instance_of] would otherwise resurrect acceptor state
   and timers for an instance nobody will ever finish. [found] is the
   caller's lookup of [instance]. *)
let retired t instance found =
  instance <= t.pruned_upto
  || instance <= t.decided_upto
     &&
     match found with
     | Some { decided = Some _; _ } -> false
     | Some _ | None -> true

(* Drive traffic for an already-decided instance is answered with a
   point-to-point Decide, except under all-to-all routing, where every
   decider has already broadcast one. Returns true when the message is
   fully handled. Messages for retired instances are dropped: pruning
   only happens once every non-suspected participant's watermark passed
   the instance, so under an accurate detector no live peer still needs
   it, and abandoned instances will never be consumed by anyone. *)
let already_handled t ~src instance found =
  retired t instance found
  ||
  match found with
  | Some { decided = Some v; _ } ->
    if src <> self t && not t.all_to_all then
      t.services.send ~dst:src
        (t.wrap (Decide { instance; value = v; floor = gc_floor t }));
    true
  | _ -> false

let handle t ~src m =
  match m with
  | Suggest { instance; value } ->
    let found = Window.find t.instances instance in
    if not (already_handled t ~src instance found) then begin
      let inst = instance_of t instance found in
      if inst.decided = None then begin
        if inst.proposal = None then inst.proposal <- Some value;
        arm_timer t instance inst;
        if is_leader t then drive_as_leader t instance inst
      end
    end
  | Prepare { instance; ballot } ->
    note_ballot t ballot;
    let found = Window.find t.instances instance in
    if not (already_handled t ~src instance found) then begin
      let inst = instance_of t instance found in
      (* A re-sent [Prepare] (see [retry]) for the ballot promised last is
         answered again: it reports the current accepted state and adds
         no new commitment (DESIGN.md §4 argues why that is safe). *)
      if ballot > eff_promised t inst || ballot = inst.promised then begin
        inst.promised <- ballot;
        arm_timer t instance inst;
        t.services.send ~dst:src
          (t.wrap (Promise { instance; ballot; accepted = inst.accepted }))
      end
    end
  | Promise { instance; ballot; accepted } ->
    let found = Window.find t.instances instance in
    if not (already_handled t ~src instance found) then begin
      let inst = instance_of t instance found in
      if inst.leading = ballot && not inst.phase1_done then begin
        add_promise t inst (rank t src) accepted;
        if inst.n_promises >= majority t then begin
          inst.phase1_done <- true;
          try_push t instance inst
        end
      end
    end
  | Accept { instance; ballot; value } ->
    note_ballot t ballot;
    let found = Window.find t.instances instance in
    if not (already_handled t ~src instance found) then begin
      let inst = instance_of t instance found in
      if ballot >= eff_promised t inst then begin
        accept_locally t instance inst ~ballot ~value;
        arm_timer t instance inst;
        maybe_decide_from_votes t instance inst ballot
      end
      else
        (* Stale, but remember the ballot's value for learner counting. *)
        note_ballot_value inst ballot value
    end
  | Accepted { instance; ballot; wm } ->
    note_ballot t ballot;
    let r = rank t src in
    if r >= 0 && wm > t.peer_wm.(r) then t.peer_wm.(r) <- wm;
    let found = Window.find t.instances instance in
    if not (retired t instance found) then begin
      let inst = instance_of t instance found in
      add_vote t inst ballot r;
      maybe_decide_from_votes t instance inst ballot
    end;
    maybe_gc t
  | Decide { instance; value; floor } ->
    if floor > t.remote_floor then t.remote_floor <- floor;
    let found = Window.find t.instances instance in
    if not (retired t instance found) then begin
      let inst = instance_of t instance found in
      (* Coordinator-only: the announcing coordinator already reached
         everyone; re-broadcasting would reinstate the O(n²) decide storm. *)
      decide ~announce:t.all_to_all t instance inst value
    end
    else maybe_gc t
  | Lease_prepare { ballot } ->
    note_ballot t ballot;
    if ballot > t.promise_floor then begin
      t.promise_floor <- ballot;
      (* Decided instances too: the promise may be the only one of the
         leader's majority from an acceptor that took part in choosing a
         value the leader has not learned yet (DESIGN.md §4). *)
      let accepted =
        Window.fold
          (fun i inst acc ->
            match inst.accepted with
            | Some (b, v) -> (i, b, v) :: acc
            | None -> acc)
          t.instances []
        |> List.rev
      in
      t.services.send ~dst:src (t.wrap (Lease_promise { ballot; accepted }))
    end
  | Lease_promise { ballot; accepted } ->
    if t.lease_pending = ballot then begin
      let r = rank t src in
      List.iter
        (fun (i, b, v) ->
          (* Skip instances at/below our consumed watermark: locally they
             are decided (nothing to re-drive) or abandoned (re-driving
             would resurrect them). *)
          if i > t.decided_upto && i > t.pruned_upto then begin
            let inst = get_instance t i in
            add_promise t inst r (Some (b, v))
          end)
        accepted;
      if r >= 0 && mark t.lease_promised_by r then
        t.n_lease_promises <- t.n_lease_promises + 1;
      if t.n_lease_promises >= majority t then begin
        t.lease_pending <- -1;
        t.lease_ballot <- ballot;
        List.iter (fun (i, inst) -> lease_push t i inst) (drivable t)
      end
    end

let note_consumed t ~upto =
  if upto > t.decided_upto then begin
    (* Abandon in-flight instances the host skipped past (pipelining: a
       clock jump can overtake proposed-but-undecided instances). Their
       timers would otherwise re-arm forever — the instance can never
       decide once a majority retires it — so quiescence requires dropping
       them now; [retired] keeps stray messages from resurrecting them. *)
    for i = t.decided_upto + 1 to upto do
      match Window.find t.instances i with
      | Some inst when inst.decided = None ->
        cancel_timer t inst;
        Window.drop t.instances i
      | Some _ | None -> ()
    done;
    t.decided_upto <- upto;
    maybe_gc t
  end

let create ~services ~wrap ~participants ~detector
    ?(timeout = Sim_time.of_ms 200) ?(all_to_all = false) ~on_decide () =
  let participants =
    Array.of_list (List.sort_uniq Int.compare participants)
  in
  if Array.length participants = 0 then
    invalid_arg "Paxos.create: no participants";
  let self = services.Runtime.Services.self in
  let self_rank = ref (-1) in
  Array.iteri (fun i p -> if p = self then self_rank := i) participants;
  let t =
    {
      services;
      wrap;
      participants;
      participants_list = Array.to_list participants;
      self_rank = !self_rank;
      detector;
      timeout;
      all_to_all;
      on_decide;
      instances = Window.create ();
      decided_upto = 0;
      pruned_upto = 0;
      remote_floor = 0;
      peer_wm = Array.make (Array.length participants) 0;
      lease_ballot = -1;
      lease_pending = -1;
      lease_promised_by = Bytes.make (Array.length participants) '\000';
      n_lease_promises = 0;
      promise_floor = -1;
      max_ballot_seen = -1;
    }
  in
  detector.subscribe (fun () -> on_suspicion_change t);
  t

let retained_instances t = Window.live t.instances
let pruned_upto t = t.pruned_upto
let decided_upto t = t.decided_upto
let holds_lease t = t.lease_ballot >= 0
