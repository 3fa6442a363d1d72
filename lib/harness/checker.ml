open Net
open Runtime

type violation = string

let cast_ids (r : Run_result.t) =
  List.fold_left
    (fun acc (c : Run_result.cast_event) ->
      Msg_id.Set.add c.msg.Amcast.Msg.id acc)
    Msg_id.Set.empty r.casts

let uniform_integrity (r : Run_result.t) =
  let casts = cast_ids r in
  (* One id table per pid: no tuple key, no polymorphic hash. *)
  let seen =
    Array.init (Topology.n_processes r.topology) (fun _ -> Msg_id.Tbl.create 8)
  in
  List.fold_left
    (fun acc (d : Run_result.delivery_event) ->
      let id = d.msg.Amcast.Msg.id in
      let acc =
        if Msg_id.Tbl.mem seen.(d.pid) id then
          Fmt.str "p%d delivered %a twice" d.pid Msg_id.pp id :: acc
        else begin
          Msg_id.Tbl.replace seen.(d.pid) id ();
          acc
        end
      in
      let acc =
        if not (Msg_id.Set.mem id casts) then
          Fmt.str "p%d delivered %a which was never cast" d.pid Msg_id.pp id
          :: acc
        else acc
      in
      if not (Amcast.Msg.addressed_to_pid r.topology d.msg d.pid) then
        Fmt.str "p%d delivered %a but is not an addressee" d.pid Msg_id.pp id
        :: acc
      else acc)
    [] r.deliveries

let validity (r : Run_result.t) =
  if not r.drained then []
  else
    List.fold_left
      (fun acc (c : Run_result.cast_event) ->
        let id = c.msg.Amcast.Msg.id in
        if Run_result.correct r c.origin then
          if Run_result.delivered_everywhere_needed r id then acc
          else
            Fmt.str
              "validity: %a cast by correct p%d not delivered by every \
               correct addressee"
              Msg_id.pp id c.origin
            :: acc
        else acc)
      [] r.casts

let uniform_agreement (r : Run_result.t) =
  if not r.drained then []
  else
    let delivered_somewhere =
      List.fold_left
        (fun acc (d : Run_result.delivery_event) ->
          Msg_id.Set.add d.msg.Amcast.Msg.id acc)
        Msg_id.Set.empty r.deliveries
    in
    Msg_id.Set.fold
      (fun id acc ->
        if Run_result.delivered_everywhere_needed r id then acc
        else
          Fmt.str
            "uniform agreement: %a delivered somewhere but not by every \
             correct addressee"
            Msg_id.pp id
          :: acc)
      delivered_somewhere []

(* How one process's delivery sequence relates to an ordered message pair
   (m1, m2), from the first-delivery positions of the two ids. *)
type pair_obs = Both_fwd | Both_rev | Only_fst | Only_snd | Neither

let pair_obs p1 p2 =
  match (p1, p2) with
  | Some a, Some b -> if (a : int) < b then Both_fwd else Both_rev
  | Some _, None -> Only_fst
  | None, Some _ -> Only_snd
  | None, None -> Neither

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

(* Distinct cast messages in cast order (ids are unique per cast in
   practice; dedup defensively). *)
let cast_msgs (r : Run_result.t) =
  let seen = Msg_id.Tbl.create 32 in
  List.filter_map
    (fun (c : Run_result.cast_event) ->
      let id = c.msg.Amcast.Msg.id in
      if Msg_id.Tbl.mem seen id then None
      else begin
        Msg_id.Tbl.replace seen id ();
        Some c.msg
      end)
    r.casts

(* Trace readers refuse a run recorded without a trace: with no entries
   to read they would pass it vacuously. *)
let require_trace what (r : Run_result.t) =
  if not (Trace.enabled r.trace) then
    invalid_arg (what ^ ": the run was recorded without a trace")

(* Indexed prefix-order check, O(deliveries * dest-size) instead of
   O(groups^2 * deliveries): one pass over the delivery sequences buckets
   each delivery into the group pairs whose projection contains it. The
   property asks, for every pid pair (p, q), that the sequences projected
   on the messages addressed to both p's and q's group be prefix-related.
   A delivery of [m] at a process of group [g_p] appears in pid's
   (ga, gb) projection exactly when {ga, gb} = {g_p, gx} for some gx in
   dest(m) and g_p is itself in dest(m) (the projection keeps messages
   addressed to both groups, and pid is a member of one of them) — so
   instead of scanning every pair, each delivery fans out to |dest(m)|
   buckets and pairs never touched by any delivery are vacuously
   prefix-ordered (every projection in them is empty). Within a bucket,
   sort the per-pid projections by length and prefix-compare consecutive
   pairs only: if every consecutive pair is prefix-related, every pair is
   (length-sorted prefixes chain by transitivity), and a pid absent from
   the bucket has an empty projection, a prefix of every other.

   Only a bucket whose chain fails is compared pair by pair, so a clean
   run pays nothing more. Each pid pair (p, q) is owned by exactly one
   bucket, (g_p, g_q): a same-group bucket (ga, ga) tests all its pairs,
   a cross bucket (ga, gb) only the pairs with one pid in each group. A
   cross bucket can fail on a same-group pair alone; that pair is
   reported by its own (ga, ga) bucket, which fails too (projection
   preserves the prefix relation). Violations come out in descending
   (p, q) order. *)
let uniform_prefix_order (r : Run_result.t) =
  let idx = Run_result.index r in
  let ng = Topology.n_groups r.topology in
  (* (min gid * ng + max gid) -> pid -> that pid's projection, reversed *)
  let pairs : (int, (int, Amcast.Msg.t list ref) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  Array.iteri
    (fun pid seq ->
      let gp = Topology.group_of r.topology pid in
      Array.iter
        (fun (m : Amcast.Msg.t) ->
          if Amcast.Msg.addressed_to_group m gp then
            List.iter
              (fun gx ->
                let key = (min gp gx * ng) + max gp gx in
                let per_pid =
                  match Hashtbl.find_opt pairs key with
                  | Some h -> h
                  | None ->
                    let h = Hashtbl.create 8 in
                    Hashtbl.replace pairs key h;
                    h
                in
                match Hashtbl.find_opt per_pid pid with
                | Some l -> l := m :: !l
                | None -> Hashtbl.replace per_pid pid (ref [ m ]))
              m.Amcast.Msg.dest)
        seq)
    idx.Run_result.seqs;
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
  let by_length (_, a) (_, b) = Int.compare (Array.length a) (Array.length b) in
  let rec chain = function
    | (_, a) :: ((_, b) :: _ as rest) -> is_prefix a b && chain rest
    | [ _ ] | [] -> true
  in
  let pp_seq = Fmt.(list ~sep:(any " ") Amcast.Msg.pp) in
  let violations = ref [] in
  Hashtbl.iter
    (fun key per_pid ->
      let projs =
        Hashtbl.fold
          (fun pid l acc -> (pid, Array.of_list (List.rev !l)) :: acc)
          per_pid []
      in
      if not (chain (List.sort by_length projs)) then begin
        let same_group = key / ng = key mod ng in
        let rec pid_pairs = function
          | [] -> ()
          | (p, sp) :: later ->
            List.iter
              (fun (q, sq) ->
                if
                  (same_group
                  || Topology.group_of r.topology p
                     <> Topology.group_of r.topology q)
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
        pid_pairs projs
      end)
    pairs;
  List.sort (fun (a, _) (b, _) -> compare b a) !violations |> List.map snd

(* Indexed conflict-order check: first-delivery positions come from the
   per-pid position tables (O(1) per lookup instead of a sequence scan),
   and message pairs are enumerated per conflict class when the relation
   is a partition — only same-class pairs can conflict, so the quadratic
   enumeration shrinks to the class sizes; solo messages drop out
   entirely. Bare Commute relations keep the pairwise enumeration. Either
   way pairs are visited in cast order (each message against the
   conflicting messages cast after it), which fixes the order of the
   violation list. *)
let conflict_order ~conflict (r : Run_result.t) =
  let idx = Run_result.index r in
  let msgs = cast_msgs r in
  let pids_memo = Msg_id.Tbl.create 32 in
  let pids_of (m : Amcast.Msg.t) =
    match Msg_id.Tbl.find_opt pids_memo m.id with
    | Some ps -> ps
    | None ->
      let ps = Amcast.Msg.dest_pids r.topology m in
      Msg_id.Tbl.replace pids_memo m.id ps;
      ps
  in
  let violations = ref [] in
  let check_pair (m1 : Amcast.Msg.t) (m2 : Amcast.Msg.t) =
    let common =
      List.filter
        (fun p -> Amcast.Msg.addressed_to_pid r.topology m2 p)
        (pids_of m1)
    in
    let obs =
      List.map
        (fun p ->
          let pos = idx.Run_result.pos.(p) in
          ( p,
            pair_obs
              (Msg_id.Tbl.find_opt pos m1.id)
              (Msg_id.Tbl.find_opt pos m2.id) ))
        common
    in
    let rec pid_pairs = function
      | [] -> ()
      | (p, op) :: later ->
        List.iter
          (fun (q, oq) ->
            match conflict_pair_violation m1 m2 p op q oq with
            | Some v -> violations := v :: !violations
            | None -> ())
          later;
        pid_pairs later
    in
    pid_pairs obs
  in
  (match conflict with
  | Amcast.Conflict.Commute _ ->
    let rec pairs = function
      | [] -> ()
      | m1 :: rest ->
        List.iter
          (fun m2 ->
            if Amcast.Conflict.conflicts conflict m1 m2 then check_pair m1 m2)
          rest;
        pairs rest
    in
    pairs msgs
  | Amcast.Conflict.Total | Amcast.Conflict.Keyed _ ->
    (* Walking the casts backwards, a class's list holds exactly the
       members cast after the current message, in cast order. *)
    let classes : (string, Amcast.Msg.t list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    List.fold_left
      (fun acc m ->
        match Amcast.Conflict.class_of conflict m with
        | Some (Some c) ->
          let later =
            match Hashtbl.find_opt classes c with
            | Some l -> l
            | None ->
              let l = ref [] in
              Hashtbl.replace classes c l;
              l
          in
          let acc = (m, !later) :: acc in
          later := m :: !later;
          acc
        | Some None -> acc (* solo: conflicts with nothing *)
        | None -> assert false)
      [] (List.rev msgs)
    |> List.iter (fun (m1, later) -> List.iter (check_pair m1) later));
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

(* Indexed causal order: build the all-pairs cast reachability bitsets
   once (one vector-clock pass over the trace), then scan each delivery
   sequence left to right keeping a "seen" bitset — a delivery of [m]
   whose successor row intersects [seen] is a violation (some causally
   later message was delivered first). Total cost O(trace * processes +
   casts^2 + deliveries * casts/63) instead of O(casts^2 * trace). *)
let causal_delivery_order (r : Run_result.t) =
  require_trace "Checker.causal_delivery_order" r;
  let causal = Causal.of_trace r.trace in
  let ids =
    List.map (fun (c : Run_result.cast_event) -> c.msg.Amcast.Msg.id) r.casts
  in
  let reach = Causal.cast_reachability causal ids in
  let idx = Run_result.index r in
  let words = reach.Causal.r_words in
  let violations = ref [] in
  Array.iteri
    (fun p seq ->
      let seen = Array.make words 0 in
      Array.iter
        (fun (m : Amcast.Msg.t) ->
          match Hashtbl.find_opt reach.Causal.r_index m.Amcast.Msg.id with
          | None -> ()
          | Some ia ->
            if seen.(ia / 63) land (1 lsl (ia mod 63)) = 0 then begin
              let row = reach.Causal.r_succ.(ia) in
              for w = 0 to words - 1 do
                let inter = row.(w) land seen.(w) in
                if inter <> 0 then
                  for b = 0 to 62 do
                    if inter land (1 lsl b) <> 0 then begin
                      let later = id_text reach.Causal.r_ids.((w * 63) + b)
                      and earlier = id_text m.Amcast.Msg.id in
                      violations :=
                        String.concat ""
                          [
                            "causal order: p"; Int.to_string p;
                            " delivered "; later; " before "; earlier;
                            " although cast("; earlier;
                            ") happened-before cast("; later; ")";
                          ]
                        :: !violations
                    end
                  done
              done;
              seen.(ia / 63) <- seen.(ia / 63) lor (1 lsl (ia mod 63))
            end)
        seq)
    idx.Run_result.seqs;
  !violations

let quiescence (r : Run_result.t) =
  if r.drained then []
  else [ "run did not drain: the deployment kept scheduling events" ]

let check_all ?(expect_genuine = false) ?(check_causal = false)
    ?(check_quiescence = false) ?(liveness_from = Des.Sim_time.zero) ?conflict
    ?overlay r =
  (* Safety (integrity, prefix order, genuineness, causal order) is owed at
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
  @ (if check_causal then causal_delivery_order r else [])
  @ if check_quiescence && liveness_due then quiescence r else []
