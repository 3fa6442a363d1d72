(* Generic (conflict-aware) multicast: the conflict relation, the relaxed
   conflict-order checker (fast vs naive oracle, on hand-built and
   randomised runs), the protocol's equivalences (total-conflict limit =
   skeen, 100%-conflict verdicts = total order), exhaustive model checking
   on the 2x2 acceptance config, and replication with per-key conflicts. *)

open Des
open Net
open Runtime

(* ----- the conflict relation ----- *)

let msg ?(dest = [ 0; 1 ]) ~origin ~seq payload =
  Amcast.Msg.make ~id:(Msg_id.make ~origin ~seq) ~dest payload

let test_payload_class () =
  let check what expect payload =
    Alcotest.(check (option string)) what expect
      (Amcast.Conflict.payload_class payload)
  in
  check "keyed payload" (Some "x") "k=x;m1";
  check "multi-char key" (Some "key12") "k=key12;m7";
  check "plain payload commutes" None "m1";
  check "empty key is not a key" None "k=;m1";
  check "unterminated key is not a key" None "k=x";
  check "empty payload" None "";
  check "semicolon only" None "k=;"

let test_conflicts_relation () =
  let open Amcast.Conflict in
  let ka = msg ~origin:0 ~seq:0 "k=a;1" in
  let ka' = msg ~origin:1 ~seq:0 "k=a;2" in
  let kb = msg ~origin:0 ~seq:1 "k=b;1" in
  let plain = msg ~origin:1 ~seq:1 "m3" in
  Alcotest.(check bool) "irreflexive" false (conflicts total ka ka);
  Alcotest.(check bool) "total: distinct conflict" true (conflicts total ka plain);
  Alcotest.(check bool) "same key conflicts" true (conflicts payload_key ka ka');
  Alcotest.(check bool) "different keys commute" false (conflicts payload_key ka kb);
  Alcotest.(check bool) "keyed vs plain commute" false (conflicts payload_key ka plain);
  Alcotest.(check bool) "never: nothing conflicts" false (conflicts never ka ka');
  Alcotest.(check bool) "plain is solo under payload_key" true (solo payload_key plain);
  Alcotest.(check bool) "keyed is not solo" false (solo payload_key ka);
  Alcotest.(check bool) "nothing is solo under total" false (solo total plain);
  Alcotest.(check bool) "everything is solo under never" true (solo never ka)

(* ----- relaxed checker on hand-built runs ----- *)

let sorted_violations vs = List.sort_uniq String.compare vs

let check_same_violations what expected_nonempty fast reference =
  let f = sorted_violations fast and n = sorted_violations reference in
  Alcotest.(check (list string)) (what ^ ": fast = reference") n f;
  Alcotest.(check bool)
    (what ^ if expected_nonempty then ": violations found" else ": clean")
    expected_nonempty (f <> [])

let mk_run ~topo ~casts ~deliveries () =
  Harness.Run_result.make ~topology:topo ~casts ~deliveries ~crashed:[]
    ~trace:(Trace.create ()) ~inter_group_msgs:0 ~intra_group_msgs:0
    ~end_time:(Sim_time.of_ms 10) ~drained:true ~events_executed:0 ()

(* Two processes (one per group), both addressees of both messages;
   [order0]/[order1] are each process's delivery sequence. *)
let two_pid_run m0 m1 ~order0 ~order1 =
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let mk_del pid msg at =
    { Harness.Run_result.pid; msg; at = Sim_time.of_ms at; lc = 1 }
  in
  let dels pid order = List.mapi (fun i m -> mk_del pid m (2 + i)) order in
  mk_run ~topo
    ~casts:
      [
        { msg = m0; origin = 0; at = Sim_time.of_ms 1; lc = 0 };
        { msg = m1; origin = 1; at = Sim_time.of_ms 1; lc = 0 };
      ]
    ~deliveries:(dels 0 order0 @ dels 1 order1)
    ()

let conflict_order_both r =
  let conflict = Amcast.Conflict.payload_key in
  ( Harness.Checker.conflict_order ~conflict r,
    Oracle.conflict_order ~conflict r )

let test_conflicting_disagreement () =
  let m0 = msg ~origin:0 ~seq:0 "k=a;x" and m1 = msg ~origin:1 ~seq:0 "k=a;y" in
  let r = two_pid_run m0 m1 ~order0:[ m0; m1 ] ~order1:[ m1; m0 ] in
  let fast, reference = conflict_order_both r in
  check_same_violations "disagreement" true fast reference;
  (* On an all-conflicting run the relaxed checker flags exactly what the
     prefix checker flags (strings aside). *)
  Alcotest.(check bool) "prefix checker also flags" true
    (Harness.Checker.uniform_prefix_order r <> [])

let test_commuting_disagreement_allowed () =
  (* Same opposite orders, but the payloads commute: the relaxed checker
     accepts what the total-order prefix checker rejects. *)
  let m0 = msg ~origin:0 ~seq:0 "x" and m1 = msg ~origin:1 ~seq:0 "y" in
  let r = two_pid_run m0 m1 ~order0:[ m0; m1 ] ~order1:[ m1; m0 ] in
  let fast, reference = conflict_order_both r in
  check_same_violations "commuting pair" false fast reference;
  Alcotest.(check bool) "prefix checker rejects the same run" true
    (Harness.Checker.uniform_prefix_order r <> [])

let test_different_keys_allowed () =
  let m0 = msg ~origin:0 ~seq:0 "k=a;x" and m1 = msg ~origin:1 ~seq:0 "k=b;y" in
  let r = two_pid_run m0 m1 ~order0:[ m0; m1 ] ~order1:[ m1; m0 ] in
  let fast, reference = conflict_order_both r in
  check_same_violations "different keys" false fast reference

let test_conflicting_hole () =
  (* p0 delivered m0 before m1; p1 delivered m1 without m0. *)
  let m0 = msg ~origin:0 ~seq:0 "k=a;x" and m1 = msg ~origin:1 ~seq:0 "k=a;y" in
  let r = two_pid_run m0 m1 ~order0:[ m0; m1 ] ~order1:[ m1 ] in
  let fast, reference = conflict_order_both r in
  check_same_violations "hole" true fast reference

let test_conflicting_crossed () =
  (* p0 delivered only m0, p1 only m1: no witness of a consistent order. *)
  let m0 = msg ~origin:0 ~seq:0 "k=a;x" and m1 = msg ~origin:1 ~seq:0 "k=a;y" in
  let r = two_pid_run m0 m1 ~order0:[ m0 ] ~order1:[ m1 ] in
  let fast, reference = conflict_order_both r in
  check_same_violations "crossed" true fast reference

let test_commute_relation_scan () =
  (* A Commute relation (no class partition: the checker's pairwise path):
     messages conflict iff their payloads share a first character. *)
  let conflict =
    Amcast.Conflict.commute ~name:"first-char" (fun m1 m2 ->
        m1.Amcast.Msg.payload = "" || m2.Amcast.Msg.payload = ""
        || m1.Amcast.Msg.payload.[0] <> m2.Amcast.Msg.payload.[0])
  in
  let m0 = msg ~origin:0 ~seq:0 "ax" and m1 = msg ~origin:1 ~seq:0 "ay" in
  let r = two_pid_run m0 m1 ~order0:[ m0; m1 ] ~order1:[ m1; m0 ] in
  check_same_violations "commute relation" true
    (Harness.Checker.conflict_order ~conflict r)
    (Oracle.conflict_order ~conflict r);
  let c0 = msg ~origin:0 ~seq:1 "ax" and c1 = msg ~origin:1 ~seq:1 "by" in
  let r' = two_pid_run c0 c1 ~order0:[ c0; c1 ] ~order1:[ c1; c0 ] in
  check_same_violations "commute relation (commuting pair)" false
    (Harness.Checker.conflict_order ~conflict r')
    (Oracle.conflict_order ~conflict r')

(* ----- randomised differentials: fast checker vs naive oracle ----- *)

type scenario = {
  groups : int;
  per_group : int;
  seed : int;
  wseed : int;
  n_msgs : int;
  rate : float;
  keys : int;
  mutate : int option;  (** Shuffle one process's delivery order. *)
}

let pp_scenario s =
  Fmt.str "{groups=%d; d=%d; seed=%d; wseed=%d; n=%d; rate=%.2f; keys=%d; \
           mutate=%a}"
    s.groups s.per_group s.seed s.wseed s.n_msgs s.rate s.keys
    Fmt.(option ~none:(any "-") int)
    s.mutate

let scenario_gen =
  let open QCheck2.Gen in
  let* groups = int_range 2 4 in
  let* per_group = int_range 1 3 in
  let* seed = int_bound 1_000_000 in
  let* wseed = int_bound 1_000_000 in
  let* n_msgs = int_range 1 12 in
  let* rate = float_bound_inclusive 1.0 in
  let* keys = int_range 1 4 in
  let+ mutate = option (int_bound 1_000_000) in
  { groups; per_group; seed; wseed; n_msgs; rate; keys; mutate }

module RG = Harness.Runner.Make (Amcast.Generic)
module RSk = Harness.Runner.Make (Amcast.Skeen)
module RA1 = Harness.Runner.Make (Amcast.A1)

let generic_key_config =
  {
    Amcast.Protocol.Config.default with
    conflict = Amcast.Conflict.payload_key;
  }

let workload_of s topo =
  Harness.Workload.generate ~rng:(Rng.create s.wseed) ~topology:topo
    ~n:s.n_msgs ~dest:(Harness.Workload.Random_groups s.groups)
    ~arrival:(`Poisson (Sim_time.of_ms 20))
    ~conflict:(Harness.Workload.conflict_spec ~keys:s.keys s.rate)
    ()

let prop_conflict_differential s =
  let topo = Topology.symmetric ~groups:s.groups ~per_group:s.per_group in
  let r =
    RG.run ~seed:s.seed ~latency:Util.crisp_latency ~config:generic_key_config
      topo (workload_of s topo)
  in
  let r = match s.mutate with None -> r | Some seed -> Util.mutate_run seed r in
  let conflict = Amcast.Conflict.payload_key in
  let fast = sorted_violations (Harness.Checker.conflict_order ~conflict r) in
  let reference = sorted_violations (Oracle.conflict_order ~conflict r) in
  (fast = reference
  || QCheck2.Test.fail_reportf "fast/reference mismatch in %s:@.%a@.vs@.%a"
       (pp_scenario s)
       Fmt.(list ~sep:(any "@.") string)
       fast
       Fmt.(list ~sep:(any "@.") string)
       reference)
  && (s.mutate <> None
     || fast = []
     || QCheck2.Test.fail_reportf "unmutated generic run not clean in %s:@.%a"
          (pp_scenario s)
          Fmt.(list ~sep:(any "@.") string)
          fast)

let prop_generic_full_checks s =
  (* The full checker battery (relaxed ordering) on unmutated runs. *)
  let topo = Topology.symmetric ~groups:s.groups ~per_group:s.per_group in
  let r =
    RG.run ~seed:s.seed ~latency:Util.crisp_latency ~config:generic_key_config
      topo (workload_of s topo)
  in
  match
    Harness.Checker.check_all ~expect_genuine:true ~check_quiescence:true
      ~conflict:Amcast.Conflict.payload_key r
  with
  | [] -> true
  | v ->
    QCheck2.Test.fail_reportf "scenario %s:@.%a" (pp_scenario s)
      Fmt.(list ~sep:(any "@.") string)
      v

(* ----- protocol equivalences ----- *)

let seq_ids r pid =
  List.map (fun (m : Amcast.Msg.t) -> m.id) (Harness.Run_result.sequence_of r pid)

let check_same_sequences what topo r1 r2 =
  List.iter
    (fun pid ->
      Alcotest.(check (list string))
        (Fmt.str "%s: p%d sequence" what pid)
        (List.map (Fmt.to_to_string Msg_id.pp) (seq_ids r1 pid))
        (List.map (Fmt.to_to_string Msg_id.pp) (seq_ids r2 pid)))
    (Topology.all_pids topo)

let test_total_conflict_equals_skeen () =
  (* Under [Conflict.total] the generic protocol {e is} Skeen: same wire
     pattern, same delivery sequences, message for message. *)
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let workload =
    Harness.Workload.generate ~rng:(Rng.create 11) ~topology:topo ~n:20
      ~dest:(Harness.Workload.Random_groups 3)
      ~arrival:(`Poisson (Sim_time.of_ms 15))
      ()
  in
  let rg = RG.run ~seed:5 ~latency:Util.crisp_latency topo workload in
  let rs = RSk.run ~seed:5 ~latency:Util.crisp_latency topo workload in
  check_same_sequences "generic-total vs skeen" topo rg rs;
  Alcotest.(check int) "same inter-group message count"
    rs.Harness.Run_result.inter_group_msgs rg.Harness.Run_result.inter_group_msgs;
  Util.check_no_violations "generic-total clean"
    (Harness.Checker.check_all ~expect_genuine:true ~check_quiescence:true rg)

let test_never_conflict_bypasses_agreement () =
  (* Under [Conflict.never] every cast is solo: no stamp traffic at all,
     degree-0/1 deliveries, and the run is still causally complete. *)
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let workload =
    Harness.Workload.generate ~rng:(Rng.create 11) ~topology:topo ~n:20
      ~dest:(Harness.Workload.Random_groups 3)
      ~arrival:(`Poisson (Sim_time.of_ms 15))
      ()
  in
  let config =
    { Amcast.Protocol.Config.default with conflict = Amcast.Conflict.never }
  in
  let dep = RG.deploy ~seed:5 ~latency:Util.crisp_latency ~config topo in
  ignore (RG.schedule dep workload);
  let r = RG.run_deployment dep in
  Util.check_no_violations "never-conflict clean"
    (Harness.Checker.check_all ~expect_genuine:true ~check_quiescence:true
       ~conflict:Amcast.Conflict.never r);
  Alcotest.(check (option int)) "no stamp traffic" None
    (List.assoc_opt "generic.stamp" (Harness.Metrics.messages_by_tag r));
  let counters label =
    List.fold_left
      (fun acc pid ->
        acc
        + List.fold_left
            (fun a (l, n) -> if l = label then a + n else a)
            0
            (Amcast.Generic.stats (RG.node dep pid)))
      0 (Topology.all_pids topo)
  in
  Alcotest.(check bool) "deliveries bypassed ordering" true
    (counters "generic.bypassed" > 0);
  Alcotest.(check int) "nothing went through agreement" 0
    (counters "generic.ordered");
  (* Lamport degrees are entangled by unrelated traffic, so solo deliveries
     need not read exactly 0/1 — but skipping agreement must show in the
     mean against the total-order run of the same workload. *)
  let mean_degree run =
    let degs =
      List.filter_map snd (Harness.Metrics.latency_degrees run)
      |> List.map float_of_int
    in
    List.fold_left ( +. ) 0.0 degs /. float_of_int (List.length degs)
  in
  let rt = RG.run ~seed:5 ~latency:Util.crisp_latency topo workload in
  Alcotest.(check bool) "mean degree below the total-order run" true
    (mean_degree r < mean_degree rt);
  Alcotest.(check (option int)) "local deliveries at degree zero" (Some 0)
    (Harness.Metrics.min_latency_degree r)

let test_verdict_equivalence_at_full_conflict () =
  (* 100% conflict rate on one key: every pair conflicts. generic-key must
     deliver in the exact sequences of generic-total, the relaxed checker
     and the prefix checker must agree on the verdict, and a1 on the same
     workload stays clean — the bench's equivalence gate, as a unit test. *)
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let workload =
    Harness.Workload.generate ~rng:(Rng.create 23) ~topology:topo ~n:24
      ~dest:(Harness.Workload.Random_groups 3)
      ~arrival:(`Poisson (Sim_time.of_ms 15))
      ~conflict:(Harness.Workload.conflict_spec ~keys:1 1.0)
      ()
  in
  let rk =
    RG.run ~seed:7 ~latency:Util.crisp_latency ~config:generic_key_config topo
      workload
  in
  let rt = RG.run ~seed:7 ~latency:Util.crisp_latency topo workload in
  check_same_sequences "generic-key vs generic-total" topo rk rt;
  let relaxed =
    Harness.Checker.conflict_order ~conflict:Amcast.Conflict.payload_key rk
  in
  let prefix = Harness.Checker.uniform_prefix_order rk in
  Alcotest.(check (list string)) "relaxed = prefix verdict" prefix relaxed;
  Util.check_no_violations "generic-key clean"
    (Harness.Checker.check_all ~expect_genuine:true ~check_quiescence:true
       ~conflict:Amcast.Conflict.payload_key rk);
  let ra1 = RA1.run ~seed:7 ~latency:Util.crisp_latency topo workload in
  Util.check_no_violations "a1 on the same workload clean"
    (Harness.Checker.check_all ~expect_genuine:true ra1)

(* ----- model checking the 2x2 acceptance config ----- *)

module EG = Mc.Explorer.Make (Amcast.Generic)
module EA1 = Mc.Explorer.Make (Amcast.A1)

let mc_cast at origin dest payload =
  { Harness.Workload.at = Sim_time.of_us at; origin; dest; payload }

let explore_generic ~config ?check casts =
  let s =
    EG.make_setup ~reorder_bound:1 ~config
      ~topology:(Topology.make ~sizes:[ 2; 2 ])
      casts
  in
  EG.explore ~opts:{ Mc.Explorer.default_opts with Mc.Explorer.check } s

let test_mc_generic_2x2 () =
  (* Two conflicting casts on the acceptance config: exhaustive, clean
     under the relaxed checker, and every terminal outcome a total order —
     at most the two orders of {m0, m1}, covering whichever a1 realises on
     the same scenario (a1's consensus pins one order where timestamping
     is schedule-sensitive; outcome digests are protocol-independent:
     per-process id sequences). *)
  let conflicting =
    [ mc_cast 1_000 0 [ 0; 1 ] "k=a;m0"; mc_cast 2_000 2 [ 0; 1 ] "k=a;m1" ]
  in
  let check = Harness.Checker.check_all ~conflict:Amcast.Conflict.payload_key in
  let o = explore_generic ~config:generic_key_config ~check conflicting in
  Alcotest.(check bool) "exhaustive" true o.Mc.Explorer.stats.Mc.Explorer.exhaustive;
  Alcotest.(check bool) "clean" true (o.Mc.Explorer.violation = None);
  Alcotest.(check bool) "at most the two total orders" true
    (List.length o.Mc.Explorer.outcome_digests <= 2);
  let a1 =
    let s =
      EA1.make_setup ~reorder_bound:1
        ~topology:(Topology.make ~sizes:[ 2; 2 ])
        conflicting
    in
    EA1.explore s
  in
  Alcotest.(check bool) "a1 exhaustive" true a1.Mc.Explorer.stats.Mc.Explorer.exhaustive;
  Alcotest.(check bool) "covers a1's outcome set" true
    (List.for_all
       (fun d -> List.mem d o.Mc.Explorer.outcome_digests)
       a1.Mc.Explorer.outcome_digests)

let test_mc_generic_2x2_commuting () =
  (* The same scenario with commuting payloads: the two origins each
     deliver their own cast first, so the (single, deterministic) outcome
     disagrees on delivery order between groups. The relaxed checker
     accepts every explored schedule; the total-order oracle rejects the
     very same state space — the relaxation, observed by the model
     checker. The relaxed checker is the explorer's default here: it is
     what generic owes under a per-key conflict relation. *)
  let commuting =
    [ mc_cast 1_000 0 [ 0; 1 ] "m0"; mc_cast 2_000 2 [ 0; 1 ] "m1" ]
  in
  let oc = explore_generic ~config:generic_key_config commuting in
  Alcotest.(check bool) "exhaustive" true oc.Mc.Explorer.stats.Mc.Explorer.exhaustive;
  Alcotest.(check bool) "clean under the relaxed checker" true
    (oc.Mc.Explorer.violation = None);
  let strict =
    explore_generic ~config:generic_key_config
      ~check:(fun r -> Harness.Checker.check_all r)
      commuting
  in
  Alcotest.(check bool) "rejected by the total-order oracle" true
    (strict.Mc.Explorer.violation <> None)

(* ----- replication with per-key conflicts ----- *)

type kv_cmd = Put of { shards : int list; key : string; value : int }

let kv_spec : ((string, int) Hashtbl.t, kv_cmd) Rsm.spec =
  {
    initial = (fun () -> Hashtbl.create 8);
    apply =
      (fun state (Put { key; value; _ }) ->
        Hashtbl.replace state key value;
        state);
    encode =
      (fun (Put { shards; key; value }) ->
        Fmt.str "put:%s:%s:%d"
          (String.concat "," (List.map string_of_int shards))
          key value);
    decode =
      (fun s ->
        match String.split_on_char ':' s with
        | [ "put"; shards; key; value ] ->
          Put
            {
              shards =
                List.map int_of_string (String.split_on_char ',' shards);
              key;
              value = int_of_string value;
            }
        | _ -> invalid_arg "decode");
    placement = (fun (Put { shards; _ }) -> shards);
  }

let kv_key (Put { key; _ }) = Some key

module Kv_gen = Rsm.Make (Amcast.Generic)

let sorted_state state =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) state []
  |> List.sort compare

let submit_random_kv t ~seed ~n =
  let rng = Rng.create seed in
  for i = 0 to n - 1 do
    let shard = Rng.int rng 3 in
    let shards =
      if Rng.bool rng then [ shard ]
      else List.sort_uniq Int.compare [ shard; Rng.int rng 3 ]
    in
    ignore
      (Kv_gen.submit t
         ~at:(Sim_time.of_ms (1 + (9 * i)))
         ~origin:(Rng.int rng 6)
         (Put
            { shards; key = Fmt.str "k%d" (Rng.int rng 3); value = Rng.int rng 100 }))
  done

let test_rsm_generic_keyed () =
  (* Same-key Puts don't commute (last write wins), different-key Puts do:
     exactly the keyed_conflict soundness contract. Replicas may interleave
     different keys differently, but states and per-key command logs must
     agree group-wide. *)
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let conflict = Rsm.keyed_conflict ~spec:kv_spec kv_key in
  let t =
    Kv_gen.deploy ~seed:3 ~latency:Util.crisp_latency
      ~config:{ Amcast.Protocol.Config.default with conflict }
      ~spec:kv_spec topo
  in
  submit_random_kv t ~seed:42 ~n:12;
  let r = Kv_gen.run t in
  Util.check_no_violations "protocol safety (relaxed order)"
    (Harness.Checker.check_all ~conflict r);
  List.iter
    (fun g ->
      match Topology.members topo g with
      | [] -> ()
      | first :: rest ->
        let ref_state = sorted_state (Kv_gen.state_of t first) in
        let per_key pid key =
          List.filter (fun (Put { key = k; _ }) -> k = key) (Kv_gen.log_of t pid)
        in
        List.iter
          (fun pid ->
            Alcotest.(check (list (pair string int)))
              (Fmt.str "g%d: p%d state = p%d state" g pid first)
              ref_state
              (sorted_state (Kv_gen.state_of t pid));
            List.iter
              (fun key ->
                Alcotest.(check (list string))
                  (Fmt.str "g%d: p%d %s-log = p%d's" g pid key first)
                  (List.map kv_spec.encode (per_key first key))
                  (List.map kv_spec.encode (per_key pid key)))
              [ "k0"; "k1"; "k2" ])
          rest)
    (Topology.all_groups topo)

let test_rsm_generic_total_consistency () =
  (* Under [Conflict.total] the generic deployment owes full log equality:
     [check_consistency] — unchanged, and deliberately stronger than the
     keyed deployment's guarantee — must pass as-is. *)
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let t = Kv_gen.deploy ~seed:3 ~latency:Util.crisp_latency ~spec:kv_spec topo in
  submit_random_kv t ~seed:42 ~n:12;
  let r = Kv_gen.run t in
  Util.check_no_violations "protocol safety" (Harness.Checker.check_all r);
  Util.check_no_violations "replica consistency" (Kv_gen.check_consistency t)

let suites =
  [
    ( "generic.conflict",
      [
        Alcotest.test_case "payload_class parsing" `Quick test_payload_class;
        Alcotest.test_case "conflicts/solo relation" `Quick
          test_conflicts_relation;
      ] );
    ( "generic.checker",
      [
        Alcotest.test_case "conflicting pair, opposite orders" `Quick
          test_conflicting_disagreement;
        Alcotest.test_case "commuting pair, opposite orders allowed" `Quick
          test_commuting_disagreement_allowed;
        Alcotest.test_case "different keys, opposite orders allowed" `Quick
          test_different_keys_allowed;
        Alcotest.test_case "conflicting pair, hole" `Quick test_conflicting_hole;
        Alcotest.test_case "conflicting pair, crossed" `Quick
          test_conflicting_crossed;
        Alcotest.test_case "Commute relation (pairwise scan path)" `Quick
          test_commute_relation_scan;
        Util.qcheck_case ~count:60
          ~name:"conflict_order: fast = reference (incl. mutated runs)"
          scenario_gen prop_conflict_differential;
        Util.qcheck_case ~count:25 ~name:"generic-key runs pass all checks"
          scenario_gen prop_generic_full_checks;
      ] );
    ( "generic.protocol",
      [
        Alcotest.test_case "total conflict = skeen, message for message"
          `Quick test_total_conflict_equals_skeen;
        Alcotest.test_case "never conflict: zero agreement traffic" `Quick
          test_never_conflict_bypasses_agreement;
        Alcotest.test_case "100% conflict: verdicts = total order" `Quick
          test_verdict_equivalence_at_full_conflict;
      ] );
    ( "generic.mc",
      [
        Alcotest.test_case "2x2 conflicting: exhaustive, a1's outcome set"
          `Quick test_mc_generic_2x2;
        Alcotest.test_case "2x2 commuting: relaxation visible, still clean"
          `Quick test_mc_generic_2x2_commuting;
      ] );
    ( "generic.rsm",
      [
        Alcotest.test_case "keyed conflicts: states and per-key logs agree"
          `Quick test_rsm_generic_keyed;
        Alcotest.test_case "total conflict: check_consistency unchanged"
          `Quick test_rsm_generic_total_consistency;
      ] );
  ]
