open Net
open Runtime

type violation = string

(* Integrity on the slot index. A delivery repeats when an earlier
   delivery of the same slot came from the same pid: one walk of the
   deliveries grouped by slot, marking each pid with the slot it was last
   seen delivering, finds every repeat. The verdicts then come out of one
   walk of the deliveries, most recent first, as the property's fold over
   the delivery log would produce them. *)
let uniform_integrity (r : Run_result.t) =
  let idx = Run_result.index r in
  let last = Array.make (Topology.n_processes r.topology) (-1) in
  let repeats = ref [] in
  for s = 0 to idx.n_slots - 1 do
    for j = idx.slot_start.(s) to idx.slot_start.(s + 1) - 1 do
      let k = idx.by_slot.(j) in
      let p = idx.dels.(k).pid in
      if last.(p) = s then repeats := k :: !repeats else last.(p) <- s
    done
  done;
  let repeats = ref (List.sort Int.compare !repeats) in
  let acc = ref [] in
  Array.iteri
    (fun k (d : Run_result.delivery_event) ->
      let id = d.msg.Amcast.Msg.id in
      (match !repeats with
      | k' :: rest when k' = k ->
        repeats := rest;
        acc := Fmt.str "p%d delivered %a twice" d.pid Msg_id.pp id :: !acc
      | _ -> ());
      if idx.del_slot.(k) >= idx.n_cast then
        acc :=
          Fmt.str "p%d delivered %a which was never cast" d.pid Msg_id.pp id
          :: !acc;
      if not (Amcast.Msg.addressed_to_pid r.topology d.msg d.pid) then
        acc :=
          Fmt.str "p%d delivered %a but is not an addressee" d.pid Msg_id.pp
            id
          :: !acc)
    idx.dels;
  !acc

let validity (r : Run_result.t) =
  if not r.drained then []
  else begin
    let idx = Run_result.index r in
    let mark = Array.make (Topology.n_processes r.topology) (-1) in
    let acc = ref [] in
    List.iteri
      (fun i (c : Run_result.cast_event) ->
        if
          idx.correct_arr.(c.origin)
          && not
               (Run_result.delivered_everywhere_slot r ~mark
                  idx.cast_slot.(i))
        then
          acc :=
            Fmt.str
              "validity: %a cast by correct p%d not delivered by every \
               correct addressee"
              Msg_id.pp c.msg.Amcast.Msg.id c.origin
            :: !acc)
      r.casts;
    !acc
  end

(* Every slot with a delivery is checked once; the verdicts list the
   failing ids in descending id order. *)
let uniform_agreement (r : Run_result.t) =
  if not r.drained then []
  else begin
    let idx = Run_result.index r in
    let mark = Array.make (Topology.n_processes r.topology) (-1) in
    let failing = ref [] in
    for s = 0 to idx.n_slots - 1 do
      if
        idx.slot_start.(s + 1) > idx.slot_start.(s)
        && not (Run_result.delivered_everywhere_slot r ~mark s)
      then failing := Run_result.slot_id idx s :: !failing
    done;
    List.sort (fun a b -> Msg_id.compare b a) !failing
    |> List.map
         (Fmt.str
            "uniform agreement: %a delivered somewhere but not by every \
             correct addressee"
            Msg_id.pp)
  end

(* How one process's delivery sequence relates to an ordered message pair
   (m1, m2), from the first-delivery positions of the two ids. *)
type pair_obs = Both_fwd | Both_rev | Only_fst | Only_snd | Neither

(* Positions as ints, -1 for "not delivered". *)
let pair_obs_at a b =
  if a >= 0 then
    if b >= 0 then if a < b then Both_fwd else Both_rev else Only_fst
  else if b >= 0 then Only_snd
  else Neither

let pair_obs p1 p2 =
  pair_obs_at (Option.value ~default:(-1) p1) (Option.value ~default:(-1) p2)

(* The conflicting-pair consistency test behind the relaxed partial-order
   checker, shared with the naive oracle the tests compare it against so
   the two can only diverge in enumeration, never in semantics. For a
   conflicting pair and two common addressees p, q, a violation is:

   - disagreement: p and q delivered both messages in opposite orders;
   - a hole: p delivered both in some order, q delivered the later one
     without the earlier — q skipped a conflicting predecessor (if q
     delivers it later the pair becomes a disagreement, if never an
     agreement violation; either way q already delivered out of order);
   - crossed: p delivered only m1 and q only m2 — whichever way the pair
     is ordered, one of them has already skipped a conflicting
     predecessor, even though neither completion exists yet.

   Pairs where one process is simply behind (same order so far, or one
   delivery missing on the trailing side) are fine: safety holds at every
   prefix, so the end state testifies for all earlier instants exactly as
   in the total-order prefix check. *)
let conflict_pair_violation (m1 : Amcast.Msg.t) (m2 : Amcast.Msg.t) p op q oq =
  let id1 = m1.Amcast.Msg.id and id2 = m2.Amcast.Msg.id in
  let disagree a first second b =
    Some
      (Fmt.str
         "conflict order: p%d delivered %a before %a but p%d delivered %a \
          before %a"
         a Msg_id.pp first Msg_id.pp second b Msg_id.pp second Msg_id.pp
         first)
  in
  let hole a first second b =
    Some
      (Fmt.str
         "conflict order: p%d delivered %a before %a but p%d delivered %a \
          without %a"
         a Msg_id.pp first Msg_id.pp second b Msg_id.pp second Msg_id.pp
         first)
  in
  let crossed a ida b idb =
    Some
      (Fmt.str
         "conflict order: p%d delivered only %a and p%d delivered only %a \
          of a conflicting pair"
         a Msg_id.pp ida b Msg_id.pp idb)
  in
  match (op, oq) with
  | Both_fwd, Both_rev -> disagree p id1 id2 q
  | Both_rev, Both_fwd -> disagree p id2 id1 q
  | Both_fwd, Only_snd -> hole p id1 id2 q
  | Only_snd, Both_fwd -> hole q id1 id2 p
  | Both_rev, Only_fst -> hole p id2 id1 q
  | Only_fst, Both_rev -> hole q id2 id1 p
  | Only_fst, Only_snd -> crossed p id1 q id2
  | Only_snd, Only_fst -> crossed p id2 q id1
  | _ -> None

(* Trace readers refuse a run recorded without a trace: with no entries
   to read they would pass it vacuously. *)
let require_trace what (r : Run_result.t) =
  if not (Trace.enabled r.trace) then
    invalid_arg (what ^ ": the run was recorded without a trace")

(* Streaming prefix-order check, one walk of the deliveries. The
   property asks, for every pid pair (p, q), that the sequences projected
   on the messages addressed to both p's and q's group be prefix-related.
   A delivery of [m] at a process of group [g_p] appears in pid's
   (ga, gb) projection exactly when {ga, gb} = {g_p, gx} for some gx in
   dest(m) and g_p is itself in dest(m) (the projection keeps messages
   addressed to both groups, and pid is a member of one of them) — so
   each delivery fans out to |dest(m)| group-pair buckets, and pairs never
   touched by any delivery are vacuously prefix-ordered.

   A bucket's projections are pairwise prefix-related iff each is a prefix
   of the longest. Sequences only grow, so that holds at the end iff it
   held after every delivery: each bucket keeps its longest projection so
   far (as slots), each (pid, bucket) its length, and a delivery must
   match the longest projection at that position or append to it. A
   bucket that ever mismatches is marked failed and stops being tracked.

   Only a failed bucket rebuilds its per-pid projections and compares
   them pair by pair, so a clean run pays nothing more. Each pid pair
   (p, q) is owned by exactly one bucket, (g_p, g_q): a same-group bucket
   (ga, ga) tests all its pairs, a cross bucket (ga, gb) only the pairs
   with one pid in each group. A cross bucket can fail on a same-group
   pair alone; that pair is reported by its own (ga, ga) bucket, which
   fails too (projection preserves the prefix relation). Violations come
   out in descending (p, q) order.

   State is dense: ng^2 buckets and n * ng positions (pid p's position
   in bucket (g_p, gx) sits at p * ng + gx). *)
let uniform_prefix_order (r : Run_result.t) =
  let idx = Run_result.index r in
  let topo = r.topology in
  let ng = Topology.n_groups topo in
  let n = Topology.n_processes topo in
  let key ga gb = if ga <= gb then (ga * ng) + gb else (gb * ng) + ga in
  (* key -> the longest projection so far; [len] -1 marks a failed bucket *)
  let longest = Array.make (ng * ng) [||] in
  let len = Array.make (ng * ng) 0 in
  let pos = Array.make (n * ng) 0 in
  (* Slot [s], delivered by [pid] of group [gp], into the buckets
     (gp, gx) for gx in [dest]. *)
  let rec fan_out pid gp s = function
    | [] -> ()
    | gx :: dest ->
      let b = key gp gx in
      let l = len.(b) in
      if l >= 0 then begin
        let pi = (pid * ng) + gx in
        let i = pos.(pi) in
        pos.(pi) <- i + 1;
        if i < l then begin
          if longest.(b).(i) <> s then len.(b) <- -1
        end
        else begin
          if l = Array.length longest.(b) then begin
            let grown = Array.make (Int.max 8 (2 * l)) 0 in
            Array.blit longest.(b) 0 grown 0 l;
            longest.(b) <- grown
          end;
          longest.(b).(l) <- s;
          len.(b) <- l + 1
        end
      end;
      fan_out pid gp s dest
  in
  for k = 0 to Array.length idx.dels - 1 do
    let d = idx.dels.(k) in
    let gp = Topology.group_of topo d.pid in
    if Amcast.Msg.addressed_to_group d.msg gp then
      fan_out d.pid gp idx.del_slot.(k) d.msg.Amcast.Msg.dest
  done;
  (* A failed bucket's projections, rebuilt from the delivery sequences of
     the pids of its groups: (pid, projection) for each pid whose
     projection is non-empty. *)
  let projections ga gb =
    let b = key ga gb in
    let members g = Array.to_list (Topology.members_array topo g) in
    List.filter_map
      (fun pid ->
        let gp = Topology.group_of topo pid in
        let proj =
          Array.fold_right
            (fun k acc ->
              let m = idx.dels.(k).msg in
              if Amcast.Msg.addressed_to_group m gp then
                List.fold_right
                  (fun gx acc -> if key gp gx = b then m :: acc else acc)
                  m.Amcast.Msg.dest acc
              else acc)
            idx.seqs.(pid) []
        in
        match proj with [] -> None | _ -> Some (pid, Array.of_list proj))
      (if ga = gb then members ga else members ga @ members gb)
  in
  let is_prefix (a : Amcast.Msg.t array) (b : Amcast.Msg.t array) =
    (* caller guarantees |a| <= |b| *)
    let ok = ref true in
    Array.iteri
      (fun i x -> if !ok && not (Amcast.Msg.equal_id x b.(i)) then ok := false)
      a;
    !ok
  in
  let related a b =
    if Array.length a <= Array.length b then is_prefix a b else is_prefix b a
  in
  let pp_seq = Fmt.(list ~sep:(any " ") Amcast.Msg.pp) in
  let violations = ref [] in
  for ga = 0 to ng - 1 do
    for gb = ga to ng - 1 do
      if len.(key ga gb) < 0 then begin
        let rec pid_pairs = function
          | [] -> ()
          | (p, sp) :: later ->
            List.iter
              (fun (q, sq) ->
                if
                  (ga = gb
                  || Topology.group_of topo p <> Topology.group_of topo q)
                  && not (related sp sq)
                then begin
                  let (p, sp), (q, sq) =
                    if p < q then ((p, sp), (q, sq)) else ((q, sq), (p, sp))
                  in
                  violations :=
                    ( (p, q),
                      Fmt.str
                        "prefix order violated between p%d [%a] and p%d [%a]"
                        p pp_seq (Array.to_list sp) q pp_seq
                        (Array.to_list sq) )
                    :: !violations
                end)
              later;
            pid_pairs later
        in
        pid_pairs (projections ga gb)
      end
    done
  done;
  List.sort (fun (a, _) (b, _) -> compare b a) !violations |> List.map snd

(* Indexed conflict-order check on cast slots: a pair's first-delivery
   positions are marked in two pid-indexed scratch arrays from the two
   slots' deliveries, and cleared the same way afterwards. Message pairs
   are enumerated per conflict class — only same-class pairs conflict, so
   the quadratic enumeration shrinks to the class sizes; solo messages
   drop out entirely. Pairs are visited in cast order (each message
   against the conflicting messages cast after it), which fixes the order
   of the violation list. *)
let conflict_order ~conflict (r : Run_result.t) =
  let idx = Run_result.index r in
  let n = Topology.n_processes r.topology in
  let msg s = idx.cast_at.(s).msg in
  let dest_pids = Array.make idx.n_cast None in
  let pids_of s =
    match dest_pids.(s) with
    | Some ps -> ps
    | None ->
      let ps = Amcast.Msg.dest_pids r.topology (msg s) in
      dest_pids.(s) <- Some ps;
      ps
  in
  (* pid -> first position of the pair's first (second) message, or -1 *)
  let pos1 = Array.make n (-1) and pos2 = Array.make n (-1) in
  let mark pos s =
    for j = idx.slot_start.(s) to idx.slot_start.(s + 1) - 1 do
      let k = idx.by_slot.(j) in
      let p = idx.dels.(k).pid in
      if pos.(p) < 0 then pos.(p) <- idx.del_pos.(k)
    done
  in
  let clear pos s =
    for j = idx.slot_start.(s) to idx.slot_start.(s + 1) - 1 do
      pos.(idx.dels.(idx.by_slot.(j)).pid) <- -1
    done
  in
  let violations = ref [] in
  (* Whether two sorted destination lists share a group. *)
  let rec meet a b =
    match (a, b) with
    | x :: a', y :: b' -> x = y || if x < y then meet a' b else meet a b'
    | [], _ | _, [] -> false
  in
  let addressed m p = Amcast.Msg.addressed_to_pid r.topology m p in
  let obs_of p = pair_obs_at pos1.(p) pos2.(p) in
  (* Equal observations never violate, so a pair that every common
     addressee observed alike needs no pid-pair walk. *)
  let rec all_obs m2 o = function
    | [] -> true
    | p :: rest -> ((not (addressed m2 p)) || obs_of p = o) && all_obs m2 o rest
  in
  let rec uniform m2 = function
    | [] -> true
    | p :: rest ->
      if addressed m2 p then all_obs m2 (obs_of p) rest else uniform m2 rest
  in
  let rec pid_pairs m1 m2 = function
    | [] -> ()
    | (p, op) :: later ->
      List.iter
        (fun (q, oq) ->
          match conflict_pair_violation m1 m2 p op q oq with
          | Some v -> violations := v :: !violations
          | None -> ())
        later;
      pid_pairs m1 m2 later
  in
  (* A pair with no common addressee is skipped before its deliveries
     are marked. *)
  let check_pair s1 s2 =
    let m1 = msg s1 and m2 = msg s2 in
    if meet m1.dest m2.dest then begin
      mark pos1 s1;
      mark pos2 s2;
      let pids = pids_of s1 in
      let obs =
        if uniform m2 pids then []
        else
          List.filter_map
            (fun p -> if addressed m2 p then Some (p, obs_of p) else None)
            pids
      in
      clear pos1 s1;
      clear pos2 s2;
      pid_pairs m1 m2 obs
    end
  in
  (* Walking the slots backwards, a class's list holds exactly the
     members cast after the current message, in cast order. *)
  let classes : (string, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let pairs = ref [] in
  for s = idx.n_cast - 1 downto 0 do
    match Amcast.Conflict.class_of conflict (msg s) with
    | Some c ->
      let later =
        match Hashtbl.find_opt classes c with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace classes c l;
          l
      in
      pairs := (s, !later) :: !pairs;
      later := s :: !later
    | None -> () (* solo: conflicts with nothing *)
  done;
  List.iter (fun (s1, later) -> List.iter (check_pair s1) later) !pairs;
  List.rev !violations

(* Indexed genuineness: the allowed set as a per-pid bool array, so each
   trace entry costs O(1) instead of a List.mem over the allowed list.
   [overlay] widens the set to overlay genuineness: the relays (lowest
   pid) of every group on the cast's routing paths —
   {!Net.Overlay.participants}, i.e. origin-to-destination routes plus
   destination-pair stamp routes — may also take part. Groups off those
   paths must stay silent. *)
let genuineness ?overlay (r : Run_result.t) =
  require_trace "Checker.genuineness" r;
  let allowed = Array.make (Topology.n_processes r.topology) false in
  List.iter
    (fun (c : Run_result.cast_event) ->
      allowed.(c.origin) <- true;
      List.iter
        (fun p -> allowed.(p) <- true)
        (Amcast.Msg.dest_pids r.topology c.msg);
      match overlay with
      | None -> ()
      | Some ov ->
        let src = Topology.group_of r.topology c.origin in
        List.iter
          (fun g -> allowed.((Topology.members_array r.topology g).(0)) <- true)
          (Overlay.participants ov ~src ~dsts:c.msg.Amcast.Msg.dest))
    r.casts;
  let check pid role time acc =
    if allowed.(pid) then acc
    else
      Fmt.str
        "genuineness: p%d %s a message at %a but is neither caster nor \
         addressee of any cast"
        pid role Des.Sim_time.pp time
      :: acc
  in
  List.fold_left
    (fun acc entry ->
      match entry with
      | Trace.Send { src; dst; time; _ } ->
        check src "sent" time (check dst "was sent" time acc)
      | _ -> acc)
    []
    (* newest first, no copy: the sort makes the fold order irrelevant *)
    (Trace.entries_rev r.trace)
  |> List.sort_uniq String.compare

(* [Msg_id.pp]'s text without a formatter: a large run can flag thousands
   of causal pairs, and formatting dominated the scan. *)
let id_text (id : Msg_id.t) =
  "m" ^ Int.to_string id.origin ^ "." ^ Int.to_string id.seq

(* Indexed causal order from the cast clocks ({!Causal.cast_clocks}):
   scan each delivery sequence left to right, keeping [seen], the
   pointwise max of the clocks of the casts delivered so far. Delivering
   [m], the [c]-th cast at [q], is a violation iff [seen.(q) >= c]: some
   delivered message was cast causally after [m]. Only then are the pairs
   named, from the delivered casts between [m] and the latest one in
   trace order, reported in cast order. Total cost O(trace * processes +
   deliveries * processes), plus that walk for each flagged delivery. *)
let causal_delivery_order (r : Run_result.t) =
  require_trace "Checker.causal_delivery_order" r;
  let casts = Causal.cast_clocks r.trace in
  let idx = Run_result.index r in
  (* cast index <-> slot, -1 for a traced cast missing from the cast log
     and for a cast slot with no traced cast *)
  let slot_of =
    Array.map
      (fun (c : Causal.cast_clock) ->
        match Msg_id.Tbl.find_opt idx.slot_of_id c.id with
        | Some s when s < idx.n_cast -> s
        | Some _ | None -> -1)
      casts
  in
  let cast_of = Array.make idx.n_cast (-1) in
  Array.iteri (fun x s -> if s >= 0 then cast_of.(s) <- x) slot_of;
  let width =
    if Array.length casts = 0 then 0 else Array.length casts.(0).clock
  in
  (* cast index -> the last pid that delivered it *)
  let delivered_by = Array.make (Array.length casts) (-1) in
  let violations = ref [] in
  Array.iteri
    (fun p seq ->
      let seen = Array.make width 0 and latest = ref (-1) in
      Array.iter
        (fun k ->
          let s = idx.del_slot.(k) in
          let m = if s < idx.n_cast then cast_of.(s) else -1 in
          if m >= 0 && delivered_by.(m) <> p then begin
            let { Causal.id; caster = q; clock } = casts.(m) in
            let c = clock.(q) and later = ref [] in
            if seen.(q) >= c then
              for x = m + 1 to !latest do
                if delivered_by.(x) = p && casts.(x).clock.(q) >= c then
                  later := slot_of.(x) :: !later
              done;
            List.iter
              (fun s ->
                let later = id_text (Run_result.slot_id idx s)
                and earlier = id_text id in
                violations :=
                  String.concat ""
                    [
                      "causal order: p"; Int.to_string p; " delivered "; later;
                      " before "; earlier; " although cast("; earlier;
                      ") happened-before cast("; later; ")";
                    ]
                  :: !violations)
              (List.sort Int.compare !later);
            delivered_by.(m) <- p;
            latest := Int.max !latest m;
            Array.iteri (fun j v -> if v > seen.(j) then seen.(j) <- v) clock
          end)
        seq)
    idx.Run_result.seqs;
  !violations

let quiescence (r : Run_result.t) =
  if r.drained then []
  else [ "run did not drain: the deployment kept scheduling events" ]

let check_all ?(expect_genuine = false) ?(check_quiescence = false)
    ?(liveness_from = Des.Sim_time.zero) ?conflict ?overlay r =
  (* Safety (integrity, prefix order, genuineness) is owed at
     every instant of every run, faults or not. Liveness (validity,
     agreement, quiescence) is only owed once the fault plan is over: a run
     cut short inside a partition window legitimately has undelivered
     messages, so those checks gate on the run having reached
     [liveness_from] — the nemesis plan's final heal. *)
  let liveness_due = Des.Sim_time.( >= ) r.Run_result.end_time liveness_from in
  let order_violations =
    (* A Total conflict relation demands exactly total order — keep the
       prefix checker (and its verdict strings) bit-identical to the
       no-conflict path. *)
    match conflict with
    | None | Some Amcast.Conflict.Total -> uniform_prefix_order r
    | Some c -> conflict_order ~conflict:c r
  in
  uniform_integrity r
  @ (if liveness_due then validity r else [])
  @ (if liveness_due then uniform_agreement r else [])
  @ order_violations
  @ (if expect_genuine then genuineness ?overlay r else [])
  @ if check_quiescence && liveness_due then quiescence r else []

let owed (e : Amcast.Catalogue.entry) (config : Amcast.Protocol.Config.t) r =
  check_all ~expect_genuine:e.genuine ~conflict:config.conflict
    ?overlay:config.overlay r
