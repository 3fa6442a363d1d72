(* Differential tests for the indexed delivery paths and single-pass
   checkers: the ordered-pending index against a sorted-list model, and
   each fast checker against its naive oracle (test/oracle/), on
   hand-built runs with known violations and on randomised soak-style
   runs, each also with one process's deliveries shuffled. *)

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
     checkers must report identically, strings included. *)
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
    (Oracle.uniform_prefix_order r);
  (* Three groups g0 = {p0, p1}, g1 = {p2, p3}, g2 = {p4, p5}. m0 and m1
     go to g0 and g1, which p0 and p1 deliver in opposite orders while g1
     delivers neither: the cross bucket (g0, g1) fails its chain check
     only because of the same-group pair (p0, p1), which belongs to the
     (g0, g0) bucket and must be reported once. m2 and m3 go to g1 and
     g2, delivered in opposite orders by p2 and p4 (p3 and p5 deliver
     nothing): a cross pair failing in (g1, g2). *)
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let mk_msg k dest =
    Amcast.Msg.make ~id:(Msg_id.make ~origin:k ~seq:0) ~dest (string_of_int k)
  in
  let m0 = mk_msg 0 [ 0; 1 ] and m1 = mk_msg 1 [ 0; 1 ] in
  let m2 = mk_msg 2 [ 1; 2 ] and m3 = mk_msg 3 [ 1; 2 ] in
  let r =
    mk_run ~topo
      ~casts:
        (List.mapi
           (fun origin msg ->
             { Harness.Run_result.msg; origin; at = Sim_time.of_ms 1; lc = 0 })
           [ m0; m1; m2; m3 ])
      ~deliveries:
        [
          mk_del 0 m0 2 1;
          mk_del 0 m1 3 1;
          mk_del 1 m1 2 1;
          mk_del 1 m0 3 1;
          mk_del 2 m2 2 1;
          mk_del 2 m3 3 1;
          mk_del 4 m3 2 1;
          mk_del 4 m2 3 1;
        ]
      ()
  in
  let fast = Harness.Checker.uniform_prefix_order r in
  check_same_violations "prefix, three groups" true fast
    (Oracle.uniform_prefix_order r);
  Alcotest.(check (list string))
    "each failing pair reported once, in the oracle's order"
    [
      "prefix order violated between p2 [m2.0->[1,2] m3.0->[1,2]] and p4 \
       [m3.0->[1,2] m2.0->[1,2]]";
      "prefix order violated between p0 [m0.0->[0,1] m1.0->[0,1]] and p1 \
       [m1.0->[0,1] m0.0->[0,1]]";
    ]
    fast

let test_prefix_wrong_first () =
  (* One group of three. p0 is the first to reach position 0 of the
     group's bucket, with m1, the wrong message; p1 and p2 then both
     deliver m0 first. Only the pairs with p0 are violations: p1 and p2
     agree with each other although they contradict the bucket's first
     entry. *)
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let m0 = Amcast.Msg.make ~id:(Msg_id.make ~origin:0 ~seq:0) ~dest:[ 0 ] "a" in
  let m1 = Amcast.Msg.make ~id:(Msg_id.make ~origin:1 ~seq:0) ~dest:[ 0 ] "b" in
  let mk_del pid msg at =
    { Harness.Run_result.pid; msg; at = Sim_time.of_ms at; lc = 1 }
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
          mk_del 0 m1 2;
          mk_del 1 m0 3;
          mk_del 2 m0 3;
          mk_del 1 m1 4;
          mk_del 2 m1 4;
          mk_del 0 m0 5;
        ]
      ()
  in
  let fast = Harness.Checker.uniform_prefix_order r in
  check_same_violations "prefix, wrong first" true fast
    (Oracle.uniform_prefix_order r);
  Alcotest.(check (list string))
    "the pairs with p0, in descending order"
    [
      "prefix order violated between p0 [m1.0->[0] m0.0->[0]] and p2 \
       [m0.0->[0] m1.0->[0]]";
      "prefix order violated between p0 [m1.0->[0] m0.0->[0]] and p1 \
       [m0.0->[0] m1.0->[0]]";
    ]
    fast

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
    (Oracle.uniform_prefix_order r);
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
    (Oracle.causal_delivery_order r);
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

let run_scenario (e : Amcast.Catalogue.entry) s =
  let module P = (val e.proto) in
  let module R = Harness.Runner.Make (P) in
  let topo = Topology.symmetric ~groups:s.groups ~per_group:s.per_group in
  let latency = if s.jitter then Latency.wan_default else Util.crisp_latency in
  let rng = Rng.create s.wseed in
  let workload =
    Harness.Workload.generate ~rng ~topology:topo ~n:s.n_msgs
      ~dest:
        (if e.broadcast_only then Harness.Workload.To_all_groups
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

let differential_ok ?(faults = "") s r =
  let check what r =
    let pids = Topology.all_pids r.Harness.Run_result.topology in
    let fail mismatch =
      QCheck2.Test.fail_reportf "%s mismatch on the %s of %s%s" mismatch what
        (pp_scenario s) faults
    in
    (* indexed accessors *)
    List.for_all
      (fun p ->
        Harness.Run_result.correct r p = naive_correct r p || fail "correct")
      pids
    && List.for_all
         (fun p ->
           List.equal Amcast.Msg.equal_id
             (Harness.Run_result.sequence_of r p)
             (naive_sequence_of r p)
           || fail "sequence_of")
         pids
    && List.for_all
         (fun (c : Harness.Run_result.cast_event) ->
           let id = c.msg.Amcast.Msg.id in
           Harness.Run_result.delivered_everywhere_needed r id
           = naive_delivered_everywhere_needed r id
           || fail "delivered_everywhere_needed")
         r.casts
    (* fast checkers vs naive oracles: integrity, validity and agreement
       give the same list, order included *)
    && (Harness.Checker.uniform_integrity r = Oracle.uniform_integrity r
       || fail "integrity differential")
    && (Harness.Checker.validity r = Oracle.validity r
       || fail "validity differential")
    && (Harness.Checker.uniform_agreement r = Oracle.uniform_agreement r
       || fail "agreement differential")
    && (sorted_violations (Harness.Checker.uniform_prefix_order r)
        = sorted_violations (Oracle.uniform_prefix_order r)
       || fail "prefix differential")
    (* conflict order through the class path: every pair conflicting
       (Total), every message solo (payload_key on these plain payloads),
       and classes mixed with solo messages (keyed on the id) *)
    && List.for_all
         (fun conflict ->
           Harness.Checker.conflict_order ~conflict r
           = Oracle.conflict_order ~conflict r
           || fail ("conflict differential, " ^ Amcast.Conflict.name conflict))
         [
           Amcast.Conflict.total;
           Amcast.Conflict.payload_key;
           Amcast.Conflict.keyed ~name:"id mod 3" (fun m ->
               match (m.Amcast.Msg.id.origin + m.Amcast.Msg.id.seq) mod 3 with
               | 0 -> None
               | k -> Some (string_of_int k));
         ]
    && (Harness.Checker.genuineness r = Oracle.genuineness r
       || fail "genuineness differential")
    && (sorted_violations (Harness.Checker.causal_delivery_order r)
        = sorted_violations (Oracle.causal_delivery_order r)
       || fail "causal differential")
  in
  (* The mutated copy shuffles one process's deliveries, so the prefix
     and causal differentials also meet non-empty violation sets. *)
  check "run" r && check "mutated run" (Util.mutate_run s.seed r)

(* Crashes are injected only into crash-tolerant protocols. A2 with
   crashes and tight arrivals does produce genuine causal-order violations
   (same-round chains); the differential must hold on those non-empty
   violation sets too. *)
let prop_differential name s =
  let e = Util.entry name in
  let s = if e.crash_tolerant then s else { s with crashes = false } in
  differential_ok s (run_scenario e s)

(* Faults injected into a finished run, each drawn from plain ints and
   reduced modulo the run's sizes, so every draw applies to every run:
   a repeated delivery, a delivery of an id nobody cast, a delivery at a
   process outside the message's groups, a caster marked crashed, a lost
   delivery (validity and agreement then fail) and an undrained run
   (they are skipped). *)
type fault =
  | Duplicate of int * int (* delivery, later position *)
  | Never_cast of int * int (* pid, position *)
  | Non_addressee of int * int (* delivery, outsider *)
  | Crashed_caster of int (* cast *)
  | Drop of int (* delivery *)
  | Undrained

let pp_fault = function
  | Duplicate (i, j) -> Fmt.str "Duplicate (%d, %d)" i j
  | Never_cast (p, j) -> Fmt.str "Never_cast (%d, %d)" p j
  | Non_addressee (i, p) -> Fmt.str "Non_addressee (%d, %d)" i p
  | Crashed_caster c -> Fmt.str "Crashed_caster %d" c
  | Drop i -> Fmt.str "Drop %d" i
  | Undrained -> "Undrained"

let fault_gen =
  let open QCheck2.Gen in
  let i = int_bound 10_000 in
  oneof
    [
      map2 (fun a b -> Duplicate (a, b)) i i;
      map2 (fun a b -> Never_cast (a, b)) i i;
      map2 (fun a b -> Non_addressee (a, b)) i i;
      map (fun c -> Crashed_caster c) i;
      map (fun a -> Drop a) i;
      pure Undrained;
    ]

let inject (r : Harness.Run_result.t) fault =
  let topo = r.topology in
  let dels = r.deliveries in
  let nd = List.length dels in
  let insert d at =
    List.filteri (fun k _ -> k < at) dels
    @ (d :: List.filteri (fun k _ -> k >= at) dels)
  in
  let remake ?(crashed = r.crashed) ?(drained = r.drained) deliveries =
    Harness.Run_result.make ~topology:topo ~casts:r.casts ~deliveries ~crashed
      ~trace:r.trace ~inter_group_msgs:r.inter_group_msgs
      ~intra_group_msgs:r.intra_group_msgs ~end_time:r.end_time ~drained
      ~events_executed:r.events_executed ()
  in
  match fault with
  | Duplicate (i, j) when nd > 0 ->
    let i = i mod nd in
    remake (insert (List.nth dels i) (i + 1 + (j mod (nd - i))))
  | Never_cast (p, j) ->
    let pid = p mod Topology.n_processes topo in
    let ghost =
      Amcast.Msg.make
        ~id:(Msg_id.make ~origin:pid ~seq:(1_000_000 + j))
        ~dest:[ Topology.group_of topo pid ]
        "ghost"
    in
    remake
      (insert
         { Harness.Run_result.pid; msg = ghost; at = r.end_time; lc = 0 }
         (j mod (nd + 1)))
  | Non_addressee (i, p) when nd > 0 -> (
    let i = i mod nd in
    let d = List.nth dels i in
    match
      List.filter
        (fun q -> not (Amcast.Msg.addressed_to_pid topo d.msg q))
        (Topology.all_pids topo)
    with
    | [] -> r
    | outsiders ->
      let q = List.nth outsiders (p mod List.length outsiders) in
      remake (insert { d with pid = q } (i + 1)))
  | Crashed_caster c when r.casts <> [] ->
    let cast = List.nth r.casts (c mod List.length r.casts) in
    remake ~crashed:(cast.origin :: r.crashed) dels
  | Drop i when nd > 0 ->
    let i = i mod nd in
    remake (List.filteri (fun k _ -> k <> i) dels)
  | Undrained -> remake ~drained:false dels
  | Duplicate _ | Non_addressee _ | Crashed_caster _ | Drop _ -> r

let prop_fault_differential name (s, faults) =
  let e = Util.entry name in
  let s = if e.crash_tolerant then s else { s with crashes = false } in
  let r = List.fold_left inject (run_scenario e s) faults in
  differential_ok
    ~faults:(" with faults " ^ String.concat ", " (List.map pp_fault faults))
    s r

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
    (Oracle.causal_delivery_order r);
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
    (Oracle.causal_delivery_order r)

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
    (Oracle.causal_delivery_order r);
  Alcotest.(check int) "one violation" 1
    (List.length (Harness.Checker.causal_delivery_order r))

let test_causal_repeated_delivery () =
  (* p0 casts m1 then m2. p0 delivers m1, m2 and m1 again: the repeat is
     skipped, not read as m2 delivered before m1. p1 delivers m2, m1 and
     m1 again: flagged once, for the first m1. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let id1 = Msg_id.make ~origin:0 ~seq:0 in
  let id2 = Msg_id.make ~origin:0 ~seq:1 in
  let m1 = Amcast.Msg.make ~id:id1 ~dest:[ 0; 1 ] "a" in
  let m2 = Amcast.Msg.make ~id:id2 ~dest:[ 0; 1 ] "b" in
  let r =
    causal_run ~topo ~msgs:[ m1; m2 ]
      ~entries:[ cast 0 id1; cast 0 id2 ]
      ~orders:[ (0, [ m1; m2; m1 ]); (1, [ m2; m1; m1 ]) ]
  in
  check_same_violations "repeated delivery" true
    (Harness.Checker.causal_delivery_order r)
    (Oracle.causal_delivery_order r);
  Alcotest.(check (list string))
    "only p1's first m1 flagged"
    [
      "causal order: p1 delivered m0.1 before m0.0 although cast(m0.0) \
       happened-before cast(m0.1)";
    ]
    (Harness.Checker.causal_delivery_order r)

(* ----- Cast reachability vs pairwise traversal ----- *)

(* [Causal.cast_clocks] must list every id with a [Cast] entry once, in
   the order of its first one, and its clock test must agree with
   [Causal.causally_precedes] on every pair of distinct ids among those and
   [queries], which may name ids that were never cast. *)
let reachability_agrees trace queries =
  let causal = Harness.Causal.of_trace trace in
  let casts = Harness.Causal.cast_clocks trace in
  let cast_ids =
    Array.to_list (Array.map (fun c -> c.Harness.Causal.id) casts)
  in
  let expected_ids =
    List.fold_left
      (fun acc -> function
        | Trace.Cast { id; _ } when not (List.exists (Msg_id.equal id) acc) ->
          id :: acc
        | _ -> acc)
      [] (Trace.entries trace)
    |> List.rev
  in
  let find id =
    Array.find_opt
      (fun (c : Harness.Causal.cast_clock) -> Msg_id.equal c.id id)
      casts
  in
  let clocks_precede a b =
    match (find a, find b) with
    | Some a, Some b ->
      a != b && b.clock.(a.caster) >= a.clock.(a.caster)
    | _ -> false
  in
  let ids = cast_ids @ queries in
  List.equal Msg_id.equal cast_ids expected_ids
  && List.for_all
       (fun a ->
         List.for_all
           (fun b ->
             clocks_precede a b
             = ((not (Msg_id.equal a b))
               && Harness.Causal.causally_precedes causal a b))
           ids)
       ids

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
  || QCheck2.Test.fail_reportf "clocks differ on trace@\n%a@\nqueries %a"
       Trace.pp trace
       Fmt.(list ~sep:sp Msg_id.pp)
       queries

(* Happened-before straight from the entry list, sharing nothing with
   [Causal]: program order joins consecutive events of one process, and a
   receive has a message edge from the last [Send] logged under its
   (env, dst), provided that send comes earlier. Reachability is a
   worklist search over the explicit edges; a cast is its first [Cast]
   entry. *)
let oracle_precedes entries =
  let entries = Array.of_list entries in
  let n = Array.length entries in
  let pid_of = function
    | Trace.Send { src; _ } -> src
    | Trace.Receive { dst; _ } -> dst
    | Trace.Cast { pid; _ } | Trace.Deliver { pid; _ } | Trace.Crash { pid; _ }
      ->
      pid
  in
  let succ = Array.make n [] in
  let edge a b = succ.(a) <- b :: succ.(a) in
  for i = 0 to n - 1 do
    let prev = ref (-1) in
    for j = 0 to i - 1 do
      if pid_of entries.(j) = pid_of entries.(i) then prev := j
    done;
    if !prev >= 0 then edge !prev i;
    match entries.(i) with
    | Trace.Receive { env; dst; _ } ->
      let last = ref (-1) in
      Array.iteri
        (fun j e ->
          match e with
          | Trace.Send { env = e'; dst = d'; _ } when e' = env && d' = dst ->
            last := j
          | _ -> ())
        entries;
      if !last >= 0 && !last < i then edge !last i
    | _ -> ()
  done;
  let first_cast id =
    let rec find i =
      if i >= n then None
      else
        match entries.(i) with
        | Trace.Cast { id = c; _ } when Msg_id.equal c id -> Some i
        | _ -> find (i + 1)
    in
    find 0
  in
  fun a b ->
    match (first_cast a, first_cast b) with
    | Some ra, Some rb ->
      let seen = Array.make n false in
      let rec visit = function
        | [] -> ()
        | i :: rest when seen.(i) -> visit rest
        | i :: rest ->
          seen.(i) <- true;
          visit (succ.(i) @ rest)
      in
      visit [ ra ];
      seen.(rb)
    | _ -> false

let prop_precedes_oracle (entries, _) =
  let trace = Trace.create () in
  List.iter (Trace.record trace) entries;
  let causal = Harness.Causal.of_trace trace in
  let oracle = oracle_precedes entries in
  let ids = List.init 8 (fun seq -> Msg_id.make ~origin:0 ~seq) in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          Harness.Causal.causally_precedes causal a b = oracle a b
          || QCheck2.Test.fail_reportf
               "causally_precedes %a %a differs from the oracle on@\n%a"
               Msg_id.pp a Msg_id.pp b Trace.pp trace)
        ids)
    ids

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
  Alcotest.(check bool) "clocks = pairwise" true
    (reachability_agrees trace
       [ id 3; id 0; id 7; id 1; id 0; id 2; id 6; id 3 ])

let prop_reachability_run name s =
  let s = { s with crashes = true } in
  let r = run_scenario (Util.entry name) s in
  let ids =
    List.map (fun (c : Harness.Run_result.cast_event) -> c.msg.Amcast.Msg.id)
      r.casts
  in
  reachability_agrees r.trace
    (List.rev ids @ [ Msg_id.make ~origin:0 ~seq:1_000_000 ] @ ids)
  || QCheck2.Test.fail_reportf "clocks differ from pairwise in %s"
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
        Alcotest.test_case "prefix: first to a position is the wrong one"
          `Quick test_prefix_wrong_first;
        Alcotest.test_case "causal differential (violating run)" `Quick
          test_causal_differential_synthetic;
        Util.qcheck_case ~count:20 ~name:"a1: fast checkers = reference"
          scenario_gen (prop_differential "a1");
        Util.qcheck_case ~count:20 ~name:"a2: fast checkers = reference"
          scenario_gen (prop_differential "a2");
        Util.qcheck_case ~count:15 ~name:"skeen: fast checkers = reference"
          scenario_gen (prop_differential "skeen");
        Util.qcheck_case ~count:30
          ~name:"a1: fast checkers = reference under injected faults"
          QCheck2.Gen.(pair scenario_gen (list_size (int_range 1 4) fault_gen))
          (prop_fault_differential "a1");
        Util.qcheck_case ~count:20
          ~name:"a2: fast checkers = reference under injected faults"
          QCheck2.Gen.(pair scenario_gen (list_size (int_range 1 4) fault_gen))
          (prop_fault_differential "a2");
        Alcotest.test_case "causal: chain through a non-casting relay" `Quick
          test_causal_relay_chain;
        Alcotest.test_case "causal: concurrent casts never flagged" `Quick
          test_causal_concurrent;
        Alcotest.test_case "causal: program order across two casts" `Quick
          test_causal_program_order;
        Alcotest.test_case "causal: a repeated delivery is skipped" `Quick
          test_causal_repeated_delivery;
        Alcotest.test_case "reachability: matching edge cases" `Quick
          test_reachability_edge_cases;
        Util.qcheck_case ~count:300 ~name:"reachability = pairwise (synthetic)"
          synthetic_gen prop_reachability_synthetic;
        Util.qcheck_case ~count:300
          ~name:"causally_precedes = entry-list oracle (synthetic)"
          synthetic_gen prop_precedes_oracle;
        Util.qcheck_case ~count:15 ~name:"reachability = pairwise (a1, crashes)"
          scenario_gen
          (prop_reachability_run "a1");
        Util.qcheck_case ~count:15 ~name:"reachability = pairwise (a2, crashes)"
          scenario_gen
          (prop_reachability_run "a2");
        Util.qcheck_case ~count:15
          ~name:"reachability = pairwise (skeen, crashes)" scenario_gen
          (prop_reachability_run "skeen");
        Util.qcheck_case ~count:15
          ~name:"reachability = pairwise (whitebox, crashes)" scenario_gen
          (prop_reachability_run "whitebox");
      ] );
  ]
