open Net
open Runtime
open Harness

type violation = Checker.violation

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

let require_trace what (r : Run_result.t) =
  if not (Trace.enabled r.trace) then
    invalid_arg (what ^ ": the run was recorded without a trace")

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

(* Whether every correct addressee of [id]'s first cast delivered it, from
   a first-cast table and one delivered-id table per pid, sharing nothing
   with the run's slot index. *)
let delivered_everywhere_needed (r : Run_result.t) =
  let crashed = Array.make (Topology.n_processes r.topology) false in
  List.iter
    (fun p -> if p >= 0 && p < Array.length crashed then crashed.(p) <- true)
    r.crashed;
  let first_cast = Msg_id.Tbl.create 32 in
  List.iter
    (fun (c : Run_result.cast_event) ->
      let id = c.msg.Amcast.Msg.id in
      if not (Msg_id.Tbl.mem first_cast id) then
        Msg_id.Tbl.replace first_cast id c)
    r.casts;
  let delivered =
    Array.init (Topology.n_processes r.topology) (fun _ -> Msg_id.Tbl.create 8)
  in
  List.iter
    (fun (d : Run_result.delivery_event) ->
      Msg_id.Tbl.replace delivered.(d.pid) d.msg.Amcast.Msg.id ())
    r.deliveries;
  fun id ->
    match Msg_id.Tbl.find_opt first_cast id with
    | None -> false
    | Some c ->
      List.for_all
        (fun p -> crashed.(p) || Msg_id.Tbl.mem delivered.(p) id)
        (Amcast.Msg.dest_pids r.topology c.msg)

let validity (r : Run_result.t) =
  if not r.drained then []
  else
    let everywhere = delivered_everywhere_needed r in
    List.fold_left
      (fun acc (c : Run_result.cast_event) ->
        let id = c.msg.Amcast.Msg.id in
        if not (List.mem c.origin r.crashed) then
          if everywhere id then acc
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
    let everywhere = delivered_everywhere_needed r in
    let delivered_somewhere =
      List.fold_left
        (fun acc (d : Run_result.delivery_event) ->
          Msg_id.Set.add d.msg.Amcast.Msg.id acc)
        Msg_id.Set.empty r.deliveries
    in
    Msg_id.Set.fold
      (fun id acc ->
        if everywhere id then acc
        else
          Fmt.str
            "uniform agreement: %a delivered somewhere but not by every \
             correct addressee"
            Msg_id.pp id
          :: acc)
      delivered_somewhere []

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
                    Checker.pair_obs
                      (position_of seq m1.Amcast.Msg.id)
                      (position_of seq m2.Amcast.Msg.id) ))
                common
            in
            let rec pid_pairs = function
              | [] -> ()
              | (p, op) :: later ->
                List.iter
                  (fun (q, oq) ->
                    match Checker.conflict_pair_violation m1 m2 p op q oq with
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
  require_trace "Oracle.genuineness" r;
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
  require_trace "Oracle.causal_delivery_order" r;
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
