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
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun acc (d : Run_result.delivery_event) ->
      let id = d.msg.Amcast.Msg.id in
      let acc =
        if Hashtbl.mem seen (d.pid, id) then
          Fmt.str "p%d delivered %a twice" d.pid Msg_id.pp id :: acc
        else begin
          Hashtbl.replace seen (d.pid, id) ();
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
   checker, shared by the reference and indexed implementations so the
   two can only diverge in enumeration, never in semantics. For a
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

(* Naive reference implementations, retained verbatim as differential
   oracles for the indexed fast paths below (and as the fallback that
   reproduces the exact violation strings once a fast path detects a
   violation). Quadratic in processes / casts — fine for unit tests,
   not for soak-scale traces. *)
module Reference = struct
  (* Projected prefix order: for each pair (p, q), restrict both sequences
     to the messages addressed to both p's and q's group, and require one
     to be a prefix of the other. *)
  let uniform_prefix_order (r : Run_result.t) =
    let pids = Topology.all_pids r.topology in
    let seqs =
      List.map (fun p -> (p, Array.of_list (Run_result.sequence_of r p))) pids
    in
    let project gp gq seq =
      Array.to_list seq
      |> List.filter (fun (m : Amcast.Msg.t) ->
             Amcast.Msg.addressed_to_group m gp
             && Amcast.Msg.addressed_to_group m gq)
    in
    let rec is_prefix a b =
      match (a, b) with
      | [], _ -> true
      | _, [] -> false
      | x :: a', y :: b' -> Amcast.Msg.equal_id x y && is_prefix a' b'
    in
    let violations = ref [] in
    List.iter
      (fun (p, sp) ->
        List.iter
          (fun (q, sq) ->
            if p < q then begin
              let gp = Topology.group_of r.topology p in
              let gq = Topology.group_of r.topology q in
              let pp_ = project gp gq sp in
              let pq = project gp gq sq in
              if not (is_prefix pp_ pq || is_prefix pq pp_) then
                violations :=
                  Fmt.str
                    "prefix order violated between p%d [%a] and p%d [%a]" p
                    Fmt.(list ~sep:(any " ") Amcast.Msg.pp)
                    pp_ q
                    Fmt.(list ~sep:(any " ") Amcast.Msg.pp)
                    pq
                  :: !violations
            end)
          seqs)
      seqs;
    !violations

  (* Relaxed partial-order check, naively: every conflicting cast pair ×
     every common-addressee pid pair, with positions found by scanning the
     delivery sequences. *)
  let conflict_order ~conflict (r : Run_result.t) =
    let msgs = cast_msgs r in
    let position_of seq id =
      let rec find i = function
        | [] -> None
        | (m : Amcast.Msg.t) :: rest ->
          if Msg_id.equal m.id id then Some i else find (i + 1) rest
      in
      find 0 seq
    in
    let violations = ref [] in
    let rec pairs = function
      | [] -> ()
      | m1 :: rest ->
        List.iter
          (fun m2 ->
            if Amcast.Conflict.conflicts conflict m1 m2 then begin
              let common =
                List.filter
                  (fun p -> Amcast.Msg.addressed_to_pid r.topology m2 p)
                  (Amcast.Msg.dest_pids r.topology m1)
              in
              let obs =
                List.map
                  (fun p ->
                    let seq = Run_result.sequence_of r p in
                    ( p,
                      pair_obs
                        (position_of seq m1.Amcast.Msg.id)
                        (position_of seq m2.Amcast.Msg.id) ))
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
            end)
          rest;
        pairs rest
    in
    pairs msgs;
    List.rev !violations

  let genuineness ?overlay (r : Run_result.t) =
    require_trace "Checker.Reference.genuineness" r;
    let allowed =
      List.fold_left
        (fun acc (c : Run_result.cast_event) ->
          let acc =
            List.fold_left
              (fun acc p -> p :: acc)
              (c.origin :: acc)
              (Amcast.Msg.dest_pids r.topology c.msg)
          in
          match overlay with
          | None -> acc
          | Some ov ->
            (* Overlay-genuine runs may additionally use the relays (the
               lowest pid) of the groups on the routing paths. *)
            let src = Topology.group_of r.topology c.origin in
            List.fold_left
              (fun acc g ->
                (Topology.members_array r.topology g).(0) :: acc)
              acc
              (Overlay.participants ov ~src ~dsts:c.msg.Amcast.Msg.dest))
        [] r.casts
      |> List.sort_uniq Int.compare
    in
    let check pid role time acc =
      if List.mem pid allowed then acc
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
      (Trace.entries r.trace)
    |> List.sort_uniq String.compare

  (* Causal order: cast(m1) -> cast(m2) implies m1 before m2 at every
     process delivering both. Pairwise over cast messages using the
     happened-before DAG reconstructed from the trace. *)
  let causal_delivery_order (r : Run_result.t) =
    require_trace "Checker.Reference.causal_delivery_order" r;
    let causal = Causal.of_trace r.trace in
    let ids =
      List.map
        (fun (c : Run_result.cast_event) -> c.msg.Amcast.Msg.id)
        r.casts
    in
    let position_of seq id =
      let rec find i = function
        | [] -> None
        | (m : Amcast.Msg.t) :: rest ->
          if Msg_id.equal m.id id then Some i else find (i + 1) rest
      in
      find 0 seq
    in
    let violations = ref [] in
    List.iter
      (fun id1 ->
        List.iter
          (fun id2 ->
            if
              (not (Msg_id.equal id1 id2))
              && Causal.causally_precedes causal id1 id2
            then
              List.iter
                (fun p ->
                  let seq = Run_result.sequence_of r p in
                  match (position_of seq id1, position_of seq id2) with
                  | Some i1, Some i2 when i2 < i1 ->
                    violations :=
                      Fmt.str
                        "causal order: p%d delivered %a before %a although \
                         cast(%a) happened-before cast(%a)"
                        p Msg_id.pp id2 Msg_id.pp id1 Msg_id.pp id1
                        Msg_id.pp id2
                      :: !violations
                  | _ -> ())
                (Topology.all_pids r.topology))
          ids)
      ids;
    !violations
end

(* Indexed prefix-order check, O(deliveries * dest-size) instead of
   O(groups^2 * deliveries): one pass over the delivery sequences buckets
   each delivery into the group pairs whose projection contains it. A
   delivery of [m] at a process of group [g_p] appears in pid's (ga, gb)
   projection exactly when {ga, gb} = {g_p, gx} for some gx in dest(m)
   and g_p is itself in dest(m) (the projection keeps messages addressed
   to both groups, and pid is a member of one of them) — so instead of
   scanning every pair, each delivery fans out to |dest(m)| buckets and
   pairs never touched by any delivery are vacuously prefix-ordered
   (every projection in them is empty). Within a bucket, sort the per-pid
   projections by length and prefix-compare consecutive pairs only.
   Sound and complete for *detection*:

   - all consecutive pairs prefix-related => all pairs prefix-related
     (length-sorted prefixes chain by transitivity), which covers every
     cross-group pid pair the naive checker tests;
   - a same-group pair failing on the (ga, gb) projection implies the
     same pair fails on the coarser (ga, ga) projection too (projection
     preserves the prefix relation), which the naive checker also flags;
   - a pid absent from a bucket has an empty projection there, and the
     empty sequence is a prefix of every other, so dropping it loses
     nothing.

   On detection we fall back to the reference checker so callers see the
   exact same violation strings the naive implementation produces. *)
let uniform_prefix_order (r : Run_result.t) =
  let idx = Run_result.index r in
  let ng = Topology.n_groups r.topology in
  (* (min gid * ng + max gid) -> pid -> that pid's projection, reversed *)
  let pairs : (int, (int, Msg_id.t list ref) Hashtbl.t) Hashtbl.t =
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
                | Some l -> l := m.Amcast.Msg.id :: !l
                | None ->
                  Hashtbl.replace per_pid pid (ref [ m.Amcast.Msg.id ]))
              m.Amcast.Msg.dest)
        seq)
    idx.Run_result.seqs;
  let is_prefix (a : Msg_id.t array) (b : Msg_id.t array) =
    (* caller guarantees |a| <= |b| *)
    let ok = ref true in
    Array.iteri (fun i x -> if !ok && not (Msg_id.equal x b.(i)) then ok := false) a;
    !ok
  in
  let violated = ref false in
  Hashtbl.iter
    (fun _ per_pid ->
      if not !violated then begin
        let projs =
          Hashtbl.fold
            (fun _ l acc -> Array.of_list (List.rev !l) :: acc)
            per_pid []
        in
        let sorted =
          List.sort
            (fun a b -> Int.compare (Array.length a) (Array.length b))
            projs
        in
        let rec chain = function
          | a :: (b :: _ as rest) ->
            if is_prefix a b then chain rest else violated := true
          | [ _ ] | [] -> ()
        in
        chain sorted
      end)
    pairs;
  if !violated then Reference.uniform_prefix_order r else []

(* Indexed conflict-order check: first-delivery positions come from the
   per-pid position tables (O(1) per lookup instead of a sequence scan),
   and message pairs are enumerated per conflict class when the relation
   is a partition — only same-class pairs can conflict, so the quadratic
   enumeration shrinks to the class sizes; solo messages drop out
   entirely. Bare Commute relations keep the pairwise enumeration.
   Detection-only: on the first violation we fall back to the reference
   checker so callers see its exact violation strings. *)
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
  let violated = ref false in
  let check_pair (m1 : Amcast.Msg.t) (m2 : Amcast.Msg.t) =
    if not !violated then begin
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
              if conflict_pair_violation m1 m2 p op q oq <> None then
                violated := true)
            later;
          if not !violated then pid_pairs later
      in
      pid_pairs obs
    end
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
    let classes : (string, Amcast.Msg.t list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    List.iter
      (fun m ->
        match Amcast.Conflict.class_of conflict m with
        | Some (Some c) -> (
          match Hashtbl.find_opt classes c with
          | Some l -> l := m :: !l
          | None -> Hashtbl.replace classes c (ref [ m ]))
        | Some None -> () (* solo: conflicts with nothing *)
        | None -> assert false)
      msgs;
    Hashtbl.iter
      (fun _ members ->
        let rec pairs = function
          | [] -> ()
          | m1 :: rest ->
            List.iter (fun m2 -> check_pair m1 m2) rest;
            pairs rest
        in
        pairs !members)
      classes);
  if !violated then Reference.conflict_order ~conflict r else []

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
