(* Differential tests for the indexed delivery paths and single-pass
   checkers: the ordered-pending index against a sorted-list model, and
   each fast checker against the retained naive reference implementation,
   on hand-built runs with known violations and on randomised soak-style
   runs. *)

open Des
open Net
open Runtime

(* ----- Pending_index vs sorted-list model ----- *)

let prop_pending_index_model ops =
  (* Random add/remove/reposition/pop interleavings against a sorted-list
     model. Handles are issued densely, so a raw integer exercises live
     handles, already-removed ones (must be a no-op) and out-of-range
     ones. Every entry gets a distinct id, as the protocols guarantee, so
     the (ts, id) order is total and the model deterministic. *)
  let module Pi = Amcast.Pending_index in
  let q = Pi.create () in
  (* model: live (ts, id, handle) triples *)
  let model = ref [] in
  let next_id = ref 0 in
  let fresh_id () =
    let id = Msg_id.make ~origin:0 ~seq:!next_id in
    incr next_id;
    id
  in
  let sorted () =
    List.sort
      (fun (t1, i1, _) (t2, i2, _) ->
        let c = Int.compare t1 t2 in
        if c <> 0 then c else Msg_id.compare i1 i2)
      !model
  in
  let step_ok op =
    match op with
    | `Add ts ->
      let id = fresh_id () in
      let h = Pi.add q ~ts ~id () in
      model := (ts, id, h) :: !model;
      true
    | `Remove k ->
      Pi.remove q k;
      model := List.filter (fun (_, _, h) -> h <> k) !model;
      true
    | `Repos (k, ts) -> (
      (* Only live handles may be repositioned (the callers' contract). *)
      match List.find_opt (fun (_, _, h) -> h = k) !model with
      | None -> true
      | Some (_, id, _) ->
        let h' = Pi.reposition q k ~ts ~id () in
        model :=
          (ts, id, h') :: List.filter (fun (_, _, h) -> h <> k) !model;
        true)
    | `Pop -> (
      match (Pi.pop_min q, sorted ()) with
      | None, [] -> true
      | Some (ts, id, ()), (ts', id', h') :: _ ->
        model := List.filter (fun (_, _, h) -> h <> h') !model;
        ts = ts' && Msg_id.equal id id'
      | Some _, [] | None, _ :: _ -> false)
  in
  List.for_all
    (fun op ->
      step_ok op
      && Pi.size q = List.length !model
      && (match (Pi.min_elt q, sorted ()) with
         | None, [] -> true
         | Some (ts, id, ()), (ts', id', _) :: _ ->
           ts = ts' && Msg_id.equal id id'
         | _ -> false)
      && List.length (Pi.to_sorted_list q) = List.length (sorted ())
      && List.for_all2
           (fun ((ts : int), id, ()) ((ts' : int), id', (_ : int)) ->
             ts = ts' && Msg_id.equal id id')
           (Pi.to_sorted_list q) (sorted ())
      && Pi.is_empty q = (!model = []))
    ops

let pending_index_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 120)
      (frequency
         [
           (4, map (fun t -> `Add t) (int_bound 500));
           (2, map (fun k -> `Remove k) (int_range (-2) 200));
           (2, map2 (fun k t -> `Repos (k, t)) (int_range (-2) 200) (int_bound 500));
           (3, pure `Pop);
         ]))

(* ----- Hand-built runs with known violations ----- *)

let sorted_violations vs = List.sort_uniq String.compare vs

let check_same_violations what expected_nonempty fast reference =
  let f = sorted_violations fast and n = sorted_violations reference in
  Alcotest.(check (list string)) (what ^ ": fast = reference") n f;
  if expected_nonempty then
    Alcotest.(check bool) (what ^ ": violations found") true (f <> [])

let mk_run ?(trace = Trace.create ()) ~topo ~casts ~deliveries () =
  Harness.Run_result.make ~topology:topo ~casts ~deliveries ~crashed:[]
    ~trace ~inter_group_msgs:0 ~intra_group_msgs:0
    ~end_time:(Sim_time.of_ms 10) ~drained:true ~events_executed:0 ()

let test_prefix_differential_synthetic () =
  (* p0 delivers m0 m1; p1 delivers m1 m0: a prefix-order violation both
     checkers must report identically (the fast path falls back to the
     reference on detection, so even the strings must match). *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let id0 = Msg_id.make ~origin:0 ~seq:0 in
  let id1 = Msg_id.make ~origin:1 ~seq:0 in
  let m0 = Amcast.Msg.make ~id:id0 ~dest:[ 0; 1 ] "a" in
  let m1 = Amcast.Msg.make ~id:id1 ~dest:[ 0; 1 ] "b" in
  let mk_del pid msg at lc =
    { Harness.Run_result.pid; msg; at = Sim_time.of_ms at; lc }
  in
  let r =
    mk_run ~topo
      ~casts:
        [
          { msg = m0; origin = 0; at = Sim_time.of_ms 1; lc = 0 };
          { msg = m1; origin = 1; at = Sim_time.of_ms 1; lc = 0 };
        ]
      ~deliveries:
        [
          mk_del 0 m0 2 1;
          mk_del 0 m1 3 1;
          mk_del 1 m1 2 1;
          mk_del 1 m0 3 1;
          mk_del 2 m0 2 1;
          mk_del 2 m1 3 1;
          mk_del 3 m1 2 1;
          mk_del 3 m0 3 1;
        ]
      ()
  in
  check_same_violations "prefix" true
    (Harness.Checker.uniform_prefix_order r)
    (Harness.Checker.Reference.uniform_prefix_order r)

let test_prefix_differential_clean () =
  (* Same shape, consistent order: both checkers must accept. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let id0 = Msg_id.make ~origin:0 ~seq:0 in
  let id1 = Msg_id.make ~origin:1 ~seq:0 in
  let m0 = Amcast.Msg.make ~id:id0 ~dest:[ 0; 1 ] "a" in
  let m1 = Amcast.Msg.make ~id:id1 ~dest:[ 0; 1 ] "b" in
  let mk_del pid msg at lc =
    { Harness.Run_result.pid; msg; at = Sim_time.of_ms at; lc }
  in
  let r =
    mk_run ~topo
      ~casts:
        [
          { msg = m0; origin = 0; at = Sim_time.of_ms 1; lc = 0 };
          { msg = m1; origin = 1; at = Sim_time.of_ms 1; lc = 0 };
        ]
      ~deliveries:
        (List.concat_map
           (fun pid -> [ mk_del pid m0 2 1; mk_del pid m1 3 1 ])
           [ 0; 1; 2; 3 ])
      ()
  in
  check_same_violations "prefix-clean" false
    (Harness.Checker.uniform_prefix_order r)
    (Harness.Checker.Reference.uniform_prefix_order r);
  Alcotest.(check (list string)) "clean run accepted" []
    (Harness.Checker.uniform_prefix_order r)

let test_causal_differential_synthetic () =
  (* cast(m1) happened-before cast(m2) via an intra-group message, yet
     every process delivers m2 first: both causal checkers must flag both
     deliverers, with identical violation sets. *)
  let topo = Topology.symmetric ~groups:1 ~per_group:2 in
  let id1 = Msg_id.make ~origin:1 ~seq:0 in
  let id2 = Msg_id.make ~origin:0 ~seq:0 in
  let m1 = Amcast.Msg.make ~id:id1 ~dest:[ 0 ] "a" in
  let m2 = Amcast.Msg.make ~id:id2 ~dest:[ 0 ] "b" in
  let trace = Trace.create () in
  let t ms = Sim_time.of_ms ms in
  Trace.record trace (Trace.Cast { time = t 1; pid = 1; id = id1; lc = 1 });
  Trace.record trace
    (Trace.Send
       {
         time = t 1;
         src = 1;
         dst = 0;
         inter_group = false;
         lc = 1;
         tag = "x.data";
         env = 1;
       });
  Trace.record trace
    (Trace.Receive { time = t 2; src = 1; dst = 0; lc = 2; env = 1 });
  Trace.record trace (Trace.Cast { time = t 3; pid = 0; id = id2; lc = 3 });
  let mk_del pid msg at lc =
    { Harness.Run_result.pid; msg; at = Sim_time.of_ms at; lc }
  in
  let r =
    mk_run ~trace ~topo
      ~casts:
        [
          { msg = m1; origin = 1; at = t 1; lc = 1 };
          { msg = m2; origin = 0; at = t 3; lc = 3 };
        ]
      ~deliveries:
        [
          mk_del 0 m2 4 4;
          mk_del 1 m2 4 4;
          mk_del 0 m1 5 5;
          mk_del 1 m1 5 5;
        ]
      ()
  in
  check_same_violations "causal" true
    (Harness.Checker.causal_delivery_order r)
    (Harness.Checker.Reference.causal_delivery_order r);
  Alcotest.(check int) "one violation per deliverer" 2
    (List.length
       (sorted_violations (Harness.Checker.causal_delivery_order r)))

(* ----- Randomised soak-style differentials ----- *)

type scenario = {
  groups : int;
  per_group : int;
  seed : int;
  wseed : int;
  n_msgs : int;
  jitter : bool;
  crashes : bool;
}

let pp_scenario s =
  Fmt.str "{groups=%d; d=%d; seed=%d; wseed=%d; n=%d; jitter=%b; crashes=%b}"
    s.groups s.per_group s.seed s.wseed s.n_msgs s.jitter s.crashes

let scenario_gen =
  let open QCheck2.Gen in
  let* groups = int_range 2 4 in
  let* per_group = int_range 1 3 in
  let* seed = int_bound 1_000_000 in
  let* wseed = int_bound 1_000_000 in
  let* n_msgs = int_range 1 12 in
  let* jitter = bool in
  let+ crashes = bool in
  { groups; per_group; seed; wseed; n_msgs; jitter; crashes }

let crash_faults s topo =
  if not s.crashes then []
  else begin
    let rng = Rng.create (s.seed + 7919) in
    List.concat_map
      (fun g ->
        let members = Topology.members topo g in
        let crashable = (List.length members - 1) / 2 in
        if crashable = 0 || Rng.bool rng then []
        else
          Rng.sample_without_replacement rng crashable members
          |> List.map (fun pid ->
                 {
                   Harness.Runner.at = Sim_time.of_ms (1 + Rng.int rng 200);
                   pid;
                   drop = Runtime.Engine.Keep_inflight;
                 }))
      (Topology.all_groups topo)
  end

let run_scenario (module P : Amcast.Protocol.S) ~broadcast s =
  let module R = Harness.Runner.Make (P) in
  let topo = Topology.symmetric ~groups:s.groups ~per_group:s.per_group in
  let latency = if s.jitter then Latency.wan_default else Util.crisp_latency in
  let rng = Rng.create s.wseed in
  let workload =
    Harness.Workload.generate ~rng ~topology:topo ~n:s.n_msgs
      ~dest:
        (if broadcast then Harness.Workload.To_all_groups
         else Harness.Workload.Random_groups s.groups)
      ~arrival:(`Poisson (Sim_time.of_ms 20))
      ()
  in
  R.run ~seed:s.seed ~latency ~faults:(crash_faults s topo) topo workload

(* The indexed Run_result accessors against direct recomputation from the
   raw event lists. *)
let naive_correct (r : Harness.Run_result.t) pid =
  not (List.mem pid r.crashed)

let naive_sequence_of (r : Harness.Run_result.t) pid =
  List.filter_map
    (fun (d : Harness.Run_result.delivery_event) ->
      if d.pid = pid then Some d.msg else None)
    r.deliveries

let naive_delivered_everywhere_needed (r : Harness.Run_result.t) id =
  match
    List.find_opt
      (fun (c : Harness.Run_result.cast_event) ->
        Msg_id.equal c.msg.Amcast.Msg.id id)
      r.casts
  with
  | None -> false
  | Some c ->
    List.for_all
      (fun p ->
        (not (naive_correct r p))
        || List.exists
             (fun (d : Harness.Run_result.delivery_event) ->
               d.pid = p && Msg_id.equal d.msg.Amcast.Msg.id id)
             r.deliveries)
      (Amcast.Msg.dest_pids r.topology c.msg)

let differential_ok s r =
  let pids = Topology.all_pids r.Harness.Run_result.topology in
  let fail fmt = QCheck2.Test.fail_reportf fmt (pp_scenario s) in
  (* indexed accessors *)
  List.for_all
    (fun p ->
      Harness.Run_result.correct r p = naive_correct r p
      || fail "correct mismatch in %s")
    pids
  && List.for_all
       (fun p ->
         List.equal Amcast.Msg.equal_id
           (Harness.Run_result.sequence_of r p)
           (naive_sequence_of r p)
         || fail "sequence_of mismatch in %s")
       pids
  && List.for_all
       (fun (c : Harness.Run_result.cast_event) ->
         let id = c.msg.Amcast.Msg.id in
         Harness.Run_result.delivered_everywhere_needed r id
         = naive_delivered_everywhere_needed r id
         || fail "delivered_everywhere_needed mismatch in %s")
       r.casts
  (* fast checkers vs naive references *)
  && (sorted_violations (Harness.Checker.uniform_prefix_order r)
      = sorted_violations (Harness.Checker.Reference.uniform_prefix_order r)
     || fail "prefix differential mismatch in %s")
  && (Harness.Checker.genuineness r
      = Harness.Checker.Reference.genuineness r
     || fail "genuineness differential mismatch in %s")
  && (sorted_violations (Harness.Checker.causal_delivery_order r)
      = sorted_violations
          (Harness.Checker.Reference.causal_delivery_order r)
     || fail "causal differential mismatch in %s")

let prop_differential_a1 s =
  differential_ok s (run_scenario (module Amcast.A1) ~broadcast:false s)

let prop_differential_a2 s =
  (* A2 with crashes and tight arrivals does produce genuine causal-order
     violations (same-round chains); the differential must hold on those
     non-empty violation sets too. *)
  differential_ok s (run_scenario (module Amcast.A2) ~broadcast:true s)

let prop_differential_skeen s =
  differential_ok s
    (run_scenario (module Amcast.Skeen) ~broadcast:false
       { s with crashes = false })

(* ----- Hand-built causal-order cases ----- *)

let t_ms = Sim_time.of_ms

let send ~src ~dst ~env =
  Trace.Send
    { time = t_ms 1; src; dst; inter_group = true; lc = 0; tag = "x"; env }

let receive ~src ~dst ~env =
  Trace.Receive { time = t_ms 2; src; dst; lc = 0; env }

let cast pid id = Trace.Cast { time = t_ms 1; pid; id; lc = 0 }

(* A run over [entries] where each pid in [orders] delivers the listed
   messages in that order. *)
let causal_run ~topo ~msgs ~entries ~orders =
  let trace = Trace.create () in
  List.iter (Trace.record trace) entries;
  let origin_of id =
    List.find_map
      (function
        | Trace.Cast { pid; id = c; _ } when Msg_id.equal c id -> Some pid
        | _ -> None)
      entries
    |> Option.get
  in
  mk_run ~trace ~topo
    ~casts:
      (List.map
         (fun (m : Amcast.Msg.t) ->
           {
             Harness.Run_result.msg = m;
             origin = origin_of m.id;
             at = t_ms 1;
             lc = 0;
           })
         msgs)
    ~deliveries:
      (List.concat_map
         (fun (pid, order) ->
           List.mapi
             (fun k (m : Amcast.Msg.t) ->
               { Harness.Run_result.pid; msg = m; at = t_ms (5 + k); lc = 0 })
             order)
         orders)
    ()

let test_causal_relay_chain () =
  (* p0 casts m1 and tells p1, which relays to p2 without casting; p2
     then casts m2. cast(m1) -> cast(m2) only transitively through the
     relay, and p1 delivering m2 first must be flagged. *)
  let topo = Topology.symmetric ~groups:3 ~per_group:1 in
  let id1 = Msg_id.make ~origin:0 ~seq:0 in
  let id2 = Msg_id.make ~origin:2 ~seq:0 in
  let m1 = Amcast.Msg.make ~id:id1 ~dest:[ 0; 1; 2 ] "a" in
  let m2 = Amcast.Msg.make ~id:id2 ~dest:[ 0; 1; 2 ] "b" in
  let r =
    causal_run ~topo ~msgs:[ m1; m2 ]
      ~entries:
        [
          cast 0 id1;
          send ~src:0 ~dst:1 ~env:1;
          receive ~src:0 ~dst:1 ~env:1;
          send ~src:1 ~dst:2 ~env:2;
          receive ~src:1 ~dst:2 ~env:2;
          cast 2 id2;
        ]
      ~orders:[ (0, [ m1; m2 ]); (1, [ m2; m1 ]); (2, [ m1; m2 ]) ]
  in
  check_same_violations "relay chain" true
    (Harness.Checker.causal_delivery_order r)
    (Harness.Checker.Reference.causal_delivery_order r);
  Alcotest.(check (list string))
    "only p1 flagged"
    [
      "causal order: p1 delivered m2.0 before m0.0 although cast(m0.0) \
       happened-before cast(m2.0)";
    ]
    (Harness.Checker.causal_delivery_order r)

let test_causal_concurrent () =
  (* Two casts with no causal path between them (the exchange comes after
     both casts) may be delivered in either order anywhere. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let id1 = Msg_id.make ~origin:0 ~seq:0 in
  let id2 = Msg_id.make ~origin:1 ~seq:0 in
  let m1 = Amcast.Msg.make ~id:id1 ~dest:[ 0; 1 ] "a" in
  let m2 = Amcast.Msg.make ~id:id2 ~dest:[ 0; 1 ] "b" in
  let r =
    causal_run ~topo ~msgs:[ m1; m2 ]
      ~entries:
        [
          cast 0 id1;
          cast 1 id2;
          send ~src:0 ~dst:1 ~env:1;
          send ~src:1 ~dst:0 ~env:2;
          receive ~src:0 ~dst:1 ~env:1;
          receive ~src:1 ~dst:0 ~env:2;
        ]
      ~orders:[ (0, [ m1; m2 ]); (1, [ m2; m1 ]) ]
  in
  Alcotest.(check (list string))
    "fast: nothing flagged" []
    (Harness.Checker.causal_delivery_order r);
  Alcotest.(check (list string))
    "reference: nothing flagged" []
    (Harness.Checker.Reference.causal_delivery_order r)

let test_causal_program_order () =
  (* p0 casts m1 then m2: program order makes m1 precede m2, so p1
     delivering m2 first must be flagged. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let id1 = Msg_id.make ~origin:0 ~seq:0 in
  let id2 = Msg_id.make ~origin:0 ~seq:1 in
  let m1 = Amcast.Msg.make ~id:id1 ~dest:[ 0; 1 ] "a" in
  let m2 = Amcast.Msg.make ~id:id2 ~dest:[ 0; 1 ] "b" in
  let r =
    causal_run ~topo ~msgs:[ m1; m2 ]
      ~entries:[ cast 0 id1; cast 0 id2 ]
      ~orders:[ (0, [ m1; m2 ]); (1, [ m2; m1 ]) ]
  in
  check_same_violations "program order" true
    (Harness.Checker.causal_delivery_order r)
    (Harness.Checker.Reference.causal_delivery_order r);
  Alcotest.(check int) "one violation" 1
    (List.length (Harness.Checker.causal_delivery_order r))

(* ----- Cast reachability vs pairwise traversal ----- *)

(* [Causal.cast_reachability] over [queries] must hold exactly the casts
   named there (first occurrence order, never-cast ids dropped), and row a
   must have bit b iff a <> b and [Causal.causally_precedes] a b. *)
let reachability_agrees trace queries =
  let causal = Harness.Causal.of_trace trace in
  let reach = Harness.Causal.cast_reachability causal queries in
  let was_cast id =
    List.exists
      (function Trace.Cast { id = c; _ } -> Msg_id.equal c id | _ -> false)
      (Trace.entries trace)
  in
  let expected_ids =
    List.fold_left
      (fun acc id ->
        if was_cast id && not (List.exists (Msg_id.equal id) acc) then
          id :: acc
        else acc)
      [] queries
    |> List.rev
  in
  let open Harness.Causal in
  let n = Array.length reach.r_ids in
  let bit a b = reach.r_succ.(a).(b / 63) land (1 lsl (b mod 63)) <> 0 in
  let ok =
    ref (List.equal Msg_id.equal (Array.to_list reach.r_ids) expected_ids)
  in
  ok :=
    !ok
    && reach.r_words = (n + 62) / 63
    && Hashtbl.length reach.r_index = n
    && List.for_all
         (fun id ->
           match Hashtbl.find_opt reach.r_index id with
           | Some i -> Msg_id.equal reach.r_ids.(i) id
           | None -> not (was_cast id))
         queries;
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      let expected =
        a <> b && causally_precedes causal reach.r_ids.(a) reach.r_ids.(b)
      in
      if bit a b <> expected then ok := false
    done
  done;
  !ok

let synthetic_gen =
  (* Small pid and envelope ranges, so traces mix shared broadcast
     envelopes, receives with no send or with a send logged later, repeated
     (env, dst) sends, several Cast entries for one id, and queried ids
     that were never cast (seq 6 and 7). *)
  let open QCheck2.Gen in
  let* n_pids = int_range 1 4 in
  let pid = int_bound (n_pids - 1) in
  let id = map (fun seq -> Msg_id.make ~origin:0 ~seq) (int_bound 5) in
  let t = t_ms 1 in
  let entry =
    frequency
      [
        ( 4,
          map3
            (fun src dsts (env, inter_group) ->
              List.map
                (fun dst ->
                  Trace.Send
                    { time = t; src; dst; inter_group; lc = 0; tag = "x"; env })
                dsts)
            pid
            (list_size (int_range 1 3) pid)
            (pair (int_bound 7) bool) );
        ( 4,
          map3
            (fun src dst env -> [ receive ~src ~dst ~env ])
            pid pid (int_bound 7) );
        (2, map2 (fun pid id -> [ cast pid id ]) pid id);
        ( 1,
          map2
            (fun pid id -> [ Trace.Deliver { time = t; pid; id; lc = 0 } ])
            pid id );
        (1, map (fun pid -> [ Trace.Crash { time = t; pid } ]) pid);
      ]
  in
  let* entries = map List.concat (list_size (int_range 0 60) entry) in
  let+ queries =
    list_size (int_range 0 16)
      (map (fun seq -> Msg_id.make ~origin:0 ~seq) (int_bound 7))
  in
  (entries, queries)

let prop_reachability_synthetic (entries, queries) =
  let trace = Trace.create () in
  List.iter (Trace.record trace) entries;
  reachability_agrees trace queries
  || QCheck2.Test.fail_reportf "rows differ on trace@\n%a@\nqueries %a"
       Trace.pp trace
       Fmt.(list ~sep:sp Msg_id.pp)
       queries

let test_reachability_edge_cases () =
  (* One fixed trace with the matching corners. p1's receive of env 9
     matches no send: its key is shadowed by a second env-9 send to p1
     logged after the receive (the table keeps the last send per key).
     p2's receive of env 5 has no send at all. Env 1 is one broadcast to
     p1 and p2. p2's chain from m0.0 to m0.3 runs through a crash.
     m0.0 is cast twice and only the first cast counts, although
     m0.3 reaches the second. *)
  let id seq = Msg_id.make ~origin:0 ~seq in
  let entries =
    [
      cast 0 (id 0);
      send ~src:0 ~dst:1 ~env:9;
      receive ~src:0 ~dst:1 ~env:9;
      cast 1 (id 1);
      send ~src:0 ~dst:1 ~env:1;
      send ~src:0 ~dst:2 ~env:1;
      send ~src:0 ~dst:1 ~env:9;
      receive ~src:0 ~dst:2 ~env:5;
      cast 2 (id 2);
      receive ~src:0 ~dst:2 ~env:1;
      Trace.Crash { time = t_ms 1; pid = 2 };
      cast 2 (id 3);
      send ~src:2 ~dst:0 ~env:4;
      receive ~src:2 ~dst:0 ~env:4;
      cast 0 (id 0);
    ]
  in
  let trace = Trace.create () in
  List.iter (Trace.record trace) entries;
  let causal = Harness.Causal.of_trace trace in
  let precedes a b = Harness.Causal.causally_precedes causal (id a) (id b) in
  Alcotest.(check bool) "shadowed send is no cause" false (precedes 0 1);
  Alcotest.(check bool) "missing send is no cause" false (precedes 0 2);
  Alcotest.(check bool) "broadcast edge, crash and note" true (precedes 0 3);
  Alcotest.(check bool) "first cast of a repeated id" false (precedes 3 0);
  Alcotest.(check bool) "rows = pairwise" true
    (reachability_agrees trace
       [ id 3; id 0; id 7; id 1; id 0; id 2; id 6; id 3 ])

let prop_reachability_run (module P : Amcast.Protocol.S) ~broadcast s =
  let s = { s with crashes = true } in
  let r = run_scenario (module P) ~broadcast s in
  let ids =
    List.map (fun (c : Harness.Run_result.cast_event) -> c.msg.Amcast.Msg.id)
      r.casts
  in
  reachability_agrees r.trace
    (List.rev ids @ [ Msg_id.make ~origin:0 ~seq:1_000_000 ] @ ids)
  || QCheck2.Test.fail_reportf "rows differ from pairwise in %s"
       (pp_scenario s)

let suites =
  [
    ( "checkers",
      [
        Util.qcheck_case ~count:150 ~name:"pending index matches model"
          pending_index_ops_gen prop_pending_index_model;
        Alcotest.test_case "prefix differential (violating run)" `Quick
          test_prefix_differential_synthetic;
        Alcotest.test_case "prefix differential (clean run)" `Quick
          test_prefix_differential_clean;
        Alcotest.test_case "causal differential (violating run)" `Quick
          test_causal_differential_synthetic;
        Util.qcheck_case ~count:20 ~name:"a1: fast checkers = reference"
          scenario_gen prop_differential_a1;
        Util.qcheck_case ~count:20 ~name:"a2: fast checkers = reference"
          scenario_gen prop_differential_a2;
        Util.qcheck_case ~count:15 ~name:"skeen: fast checkers = reference"
          scenario_gen prop_differential_skeen;
        Alcotest.test_case "causal: chain through a non-casting relay" `Quick
          test_causal_relay_chain;
        Alcotest.test_case "causal: concurrent casts never flagged" `Quick
          test_causal_concurrent;
        Alcotest.test_case "causal: program order across two casts" `Quick
          test_causal_program_order;
        Alcotest.test_case "reachability: matching edge cases" `Quick
          test_reachability_edge_cases;
        Util.qcheck_case ~count:300 ~name:"reachability = pairwise (synthetic)"
          synthetic_gen prop_reachability_synthetic;
        Util.qcheck_case ~count:15 ~name:"reachability = pairwise (a1, crashes)"
          scenario_gen
          (prop_reachability_run (module Amcast.A1) ~broadcast:false);
        Util.qcheck_case ~count:15 ~name:"reachability = pairwise (a2, crashes)"
          scenario_gen
          (prop_reachability_run (module Amcast.A2) ~broadcast:true);
        Util.qcheck_case ~count:15
          ~name:"reachability = pairwise (skeen, crashes)" scenario_gen
          (prop_reachability_run (module Amcast.Skeen) ~broadcast:false);
        Util.qcheck_case ~count:15
          ~name:"reachability = pairwise (whitebox, crashes)" scenario_gen
          (prop_reachability_run (module Amcast.Whitebox) ~broadcast:false);
      ] );
  ]
