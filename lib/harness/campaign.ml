open Des
open Net

type scenario = {
  seed : int;
  groups : int;
  per_group : int;
  n_msgs : int;
  broadcast_only : bool;
  with_crashes : bool;
  jitter : bool;
  nemesis : bool;
}

type outcome = {
  scenario : scenario;
  violations : string list;
  delivered : int;
  max_degree : int option;
  drained : bool;
  steps : int;
  retained : (string * int) list;
}

type summary = {
  runs : int;
  clean : int;
  total_violations : int;
  failures : outcome list;
  delivered_total : int;
  total_steps : int;
  retained_total : (string * int) list;
}

(* Scenario [i] of campaign [seed] draws from its own RNG substream, a
   pure function of [(seed, i)]: whichever domain claims index [i]
   expands it to the same scenario without coordinating over a shared
   walking rng. Each run then re-seeds everything from its scenario, so
   outcomes are independent of who generated the scenario where. *)
let scenario_at ?(broadcast_only = false) ?(with_crashes = true)
    ?(with_nemesis = false) ~seed i =
  let rng = Rng.substream seed i in
  {
    seed = Rng.int rng 1_000_000_000;
    groups = 2 + Rng.int rng 3;
    per_group = 1 + Rng.int rng 3;
    n_msgs = 1 + Rng.int rng 12;
    broadcast_only;
    with_crashes;
    jitter = Rng.bool rng;
    nemesis = with_nemesis;
  }

let scenarios ?broadcast_only ?with_crashes ?with_nemesis ~seed ~runs () =
  List.init runs
    (scenario_at ?broadcast_only ?with_crashes ?with_nemesis ~seed)

let faults_for s topo =
  if not s.with_crashes then []
  else begin
    let rng = Rng.create (s.seed + 104729) in
    List.concat_map
      (fun g ->
        let members = Topology.members topo g in
        let crashable = (List.length members - 1) / 2 in
        if crashable = 0 || Rng.bool rng then []
        else
          Rng.sample_without_replacement rng crashable members
          |> List.map (fun pid ->
                 let drop =
                   match Rng.int rng 3 with
                   | 0 -> Runtime.Engine.Keep_inflight
                   | 1 -> Runtime.Engine.Lose_all_inflight
                   | _ -> Runtime.Engine.Lose_each_with_probability 0.5
                 in
                 {
                   Runner.at = Sim_time.of_ms (1 + Rng.int rng 300);
                   pid;
                   drop;
                 }))
      (Topology.all_groups topo)
  end

(* Label-wise merge of assoc lists, result sorted by label so the merge is
   order-insensitive. Labels ending in "_max" are high-water marks and
   combine by max; everything else is a count and sums. *)
let is_max_label label = String.ends_with ~suffix:"_max" label

let sum_retained lists =
  let tbl = Hashtbl.create 8 in
  List.iter
    (List.iter (fun (label, n) ->
         let prev = Option.value ~default:0 (Hashtbl.find_opt tbl label) in
         Hashtbl.replace tbl label
           (if is_max_label label then max prev n else prev + n)))
    lists;
  Hashtbl.fold (fun label n acc -> (label, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The step budget of one scenario run. Scenarios are small (at most four
   groups of three, twelve casts) and drain in a few thousand events, so a
   run still going at this budget is a runaway event loop; it is reported
   as the scenario's violation within seconds, instead of the whole
   campaign aborting after the runner's default 50M steps. *)
let max_steps = 1_000_000

let run_one (module P : Amcast.Protocol.S) ?config ?conflict ?overlay_kind
    ?(expect_genuine = false) ?(check_quiescence = false) s =
  let module R = Runner.Make (P) in
  (* Overlay campaigns keep the scenario stream but may bump the group
     count to the geometry's minimum (a ring needs a cycle). *)
  let groups =
    match overlay_kind with
    | Some Overlay.Ring -> max 3 s.groups
    | _ -> s.groups
  in
  let topo = Topology.symmetric ~groups ~per_group:s.per_group in
  let overlay = Option.map (fun k -> Overlay.of_kind k ~groups) overlay_kind in
  (* On an overlay the latency model is derived from it — every direct
     send pays its routed-path delay — with jitter scaled to the
     scenario's flag. Without one, the classic clique models. *)
  let latency =
    match overlay with
    | Some ov ->
      Overlay.to_latency
        ~jitter:(if s.jitter then Sim_time.of_ms 2 else Sim_time.zero)
        ov
    | None -> if s.jitter then Latency.wan_default else Latency.lan_only
  in
  let config =
    match overlay with
    | None -> config
    | Some ov ->
      let base = Option.value ~default:Amcast.Protocol.Config.default config in
      Some { base with Amcast.Protocol.Config.overlay = Some ov }
  in
  let rng = Rng.create (s.seed + 1) in
  let workload =
    Workload.generate ~rng ~topology:topo ~n:s.n_msgs
      ~dest:
        (if s.broadcast_only then Workload.To_all_groups
         else Workload.Random_groups groups)
      ~arrival:(`Poisson (Sim_time.of_ms 25))
      ?conflict ()
  in
  (* Under a nemesis plan the crash schedule comes from the plan itself
     (same minority-per-group policy, so group consensus keeps a correct
     majority), and [faults_for] is skipped — otherwise the two schedules
     would compound and could crash a majority. *)
  let nemesis =
    if not s.nemesis then None
    else
      Some
        (Nemesis.generate
           ~rng:(Rng.create (s.seed + 7919))
           ~topology:topo ~with_crashes:s.with_crashes ?overlay ())
  in
  let faults = if s.nemesis then [] else faults_for s topo in
  (* Only the genuineness check reads the trace; every other verdict and
     the outcome's counters come from the engine's cast and delivery
     logs, which it keeps either way. *)
  let genuine_checked = expect_genuine && not s.with_crashes in
  let dep =
    R.deploy ~seed:s.seed ~latency ?config ~record_trace:genuine_checked
      ~faults ?nemesis topo
  in
  ignore (R.schedule dep workload);
  let retained () =
    sum_retained
      (List.map (fun pid -> P.stats (R.node dep pid)) (Topology.all_pids topo))
  in
  match R.run_deployment ~max_steps dep with
  | exception Failure msg ->
    (* The scheduler's step budget is what a simulated run raises [Failure]
       for (the event queue's overflow guard is the other runaway). *)
    {
      scenario = s;
      violations = [ Fmt.str "not drained in %d events: %s" max_steps msg ];
      delivered = 0;
      max_degree = None;
      drained = false;
      steps = max_steps;
      retained = retained ();
    }
  | r ->
    {
      scenario = s;
      violations =
        (* The ordering property follows the deployment's conflict
           relation: Total keeps the prefix check, anything else owes only
           the relaxed conflict order. *)
        Checker.check_all ~expect_genuine:genuine_checked ~check_quiescence
          ?liveness_from:(Option.map Nemesis.liveness_from nemesis)
          ?conflict:
            (Option.map (fun c -> c.Amcast.Protocol.Config.conflict) config)
          ?overlay r;
      delivered = Metrics.delivered_count r;
      max_degree = Metrics.max_latency_degree r;
      drained = r.drained;
      steps = r.events_executed;
      retained = retained ();
    }

let summarize outcomes =
  let failures = List.filter (fun o -> o.violations <> []) outcomes in
  {
    runs = List.length outcomes;
    clean = List.length outcomes - List.length failures;
    total_violations =
      List.fold_left (fun acc o -> acc + List.length o.violations) 0 outcomes;
    failures;
    delivered_total =
      List.fold_left (fun acc o -> acc + o.delivered) 0 outcomes;
    total_steps = List.fold_left (fun acc o -> acc + o.steps) 0 outcomes;
    retained_total = sum_retained (List.map (fun o -> o.retained) outcomes);
  }

(* Nothing is materialised up front: the domain that claims index [i]
   derives scenario [i] from its substream and runs it, so the
   coordinating domain does O(1) work per run. Outcome [i] lands at index
   [i], so the summary is bit-identical at every domain count. *)
let run_sharded proto ?config ?conflict ?overlay_kind ?expect_genuine
    ?check_quiescence ?broadcast_only ?with_crashes ?with_nemesis ?domains
    ~seed ~runs () =
  Pool.tabulate ?domains runs (fun i ->
      run_one proto ?config ?conflict ?overlay_kind ?expect_genuine
        ?check_quiescence
        (scenario_at ?broadcast_only ?with_crashes ?with_nemesis ~seed i))
  |> Array.to_list |> summarize

let pp_scenario ppf s =
  Fmt.pf ppf
    "seed=%d groups=%d d=%d msgs=%d%s%s%s%s" s.seed s.groups s.per_group
    s.n_msgs
    (if s.broadcast_only then " broadcast" else "")
    (if s.with_crashes then " crashes" else "")
    (if s.jitter then " jitter" else "")
    (if s.nemesis then " nemesis" else "")

let pp_summary ppf t =
  Fmt.pf ppf "@[<v>%d runs, %d clean, %d messages delivered, %d events@,"
    t.runs t.clean t.delivered_total t.total_steps;
  if t.retained_total <> [] then begin
    Fmt.pf ppf "end-of-run retained state:";
    List.iter
      (fun (label, n) -> Fmt.pf ppf " %s=%d" label n)
      t.retained_total;
    Fmt.pf ppf "@,"
  end;
  if t.failures = [] then Fmt.pf ppf "no violations.@]"
  else begin
    Fmt.pf ppf "%d VIOLATIONS across %d runs:@," t.total_violations
      (List.length t.failures);
    List.iter
      (fun o ->
        Fmt.pf ppf "  [%a]@," pp_scenario o.scenario;
        List.iter (fun v -> Fmt.pf ppf "    %s@," v) o.violations)
      t.failures;
    Fmt.pf ppf "@]"
  end
