(* Reproduction harness: one experiment per table, figure and theorem of the
   paper, printed as paper-vs-measured rows. See DESIGN.md section 5 for the
   experiment index and EXPERIMENTS.md for recorded outcomes; timings come
   from perfbench/.

   Usage: dune exec bench/main.exe [-- --only ID]
   where ID is one of: figure-1a figure-1b theorem-4-1 theorem-5-1
   theorem-5-2 lower-bound quiescence tradeoff a2-frequency a1-ablation
   asymmetric failover prediction. With no ID every experiment runs; the
   full output is pinned by bench/main.expected under `dune runtest`. *)

open Des
open Net

module F1 = Harness.Figure1

let ms = Sim_time.of_ms

(* ------------------------------------------------------------------ *)
(* Small table printer *)

let hr width = print_endline (String.make width '-')

let print_table ~title ~header rows =
  (* Materialise rows as arrays: the List.nth-per-cell version was
     O(cols^2) per row, noticeable on the wide Figure 1 tables. *)
  let all = List.map Array.of_list (header :: rows) in
  let cols = List.length header in
  let widths = Array.make cols 0 in
  List.iter
    (fun row ->
      Array.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let render row =
    String.concat "  "
      (Array.to_list
         (Array.mapi
            (fun i cell ->
              cell ^ String.make (widths.(i) - String.length cell) ' ')
            row))
  in
  let header = Array.of_list header in
  let rows = List.map Array.of_list rows in
  let total = Array.fold_left ( + ) (2 * (cols - 1)) widths in
  print_newline ();
  print_endline title;
  hr total;
  print_endline (render header);
  hr total;
  List.iter (fun row -> print_endline (render row)) rows;
  hr total

let stri = string_of_int
let str_deg = function None -> "-" | Some d -> stri d

(* ------------------------------------------------------------------ *)
(* F1a / F1b — Figure 1, printed from Harness.Figure1's matrix *)

let default = Amcast.Protocol.Config.default
let degree_of (r, id) = str_deg (Harness.Metrics.latency_degree r id)

let wall_of ?(digits = 1) (r, id) =
  match Harness.Metrics.delivery_latency r id with
  | Some w -> Printf.sprintf "%.*fms" digits (Sim_time.to_ms_float w)
  | None -> "-"

(* One table, one algorithm's rows together (the matrix is placement-major). *)
let figure_table ~title ~header row (cells : F1.cell list) =
  let rank (c : F1.cell) =
    List.find_index (fun (x : F1.cell) -> x.algorithm = c.algorithm) cells
  in
  print_table ~title ~header
    (List.map
       (fun c -> row c (F1.counts c))
       (List.stable_sort (fun a b -> compare (rank a) (rank b)) cells))

let figure_1a () =
  figure_table
    ~title:
      "Figure 1(a) — atomic multicast: latency degree and inter-group \
       messages (4 groups; caster in the last destination group)"
    ~header:
      [
        "algorithm"; "k"; "d"; "paper deg"; "measured"; "paper msgs";
        "formula"; "inter msgs";
      ]
    (fun c m ->
      [
        c.label;
        stri c.k;
        stri c.d;
        stri c.paper_degree;
        str_deg m.degree;
        c.paper_msgs;
        (match c.formula with Some f -> stri f.inter_msgs | None -> "-");
        stri m.inter_msgs;
      ])
    F1.figure_1a

let figure_1b () =
  figure_table
    ~title:
      "Figure 1(b) — atomic broadcast: latency degree and inter-group \
       messages"
    ~header:
      [
        "algorithm"; "groups"; "d"; "n"; "paper deg"; "measured";
        "paper msgs"; "inter msgs";
      ]
    (fun c m ->
      [
        c.label;
        stri c.groups;
        stri c.d;
        stri (c.groups * c.d);
        stri c.paper_degree;
        str_deg m.degree;
        c.paper_msgs;
        stri m.inter_msgs;
      ])
    F1.figure_1b

(* ------------------------------------------------------------------ *)
(* T41 / T51 / T52 — the theorems' runs *)

let theorem_4_1 () =
  let p =
    F1.multicast (module Amcast.A1) ~groups:2 ~d:2 ~k:2 ~config:default ~seed:0
  in
  print_table
    ~title:
      "Theorem 4.1 — a run of A1 with m A-MCast to two groups has latency \
       degree 2"
    ~header:[ "claimed"; "measured"; "wall clock (2 inter hops @50ms)" ]
    [ [ "2"; degree_of p; wall_of p ] ]

let theorem_5_1 () =
  let p = F1.a2_warm ~groups:2 ~d:2 ~config:default ~seed:0 in
  print_table
    ~title:
      "Theorem 5.1 — a run of A2 where m is A-BCast into a running round \
       has latency degree 1"
    ~header:[ "claimed"; "measured"; "wall clock" ]
    [ [ "1"; degree_of p; wall_of p ] ]

let theorem_5_2 () =
  (* Cold start: the algorithm is quiescent when the message is cast, the
     reactive case of the theorem. *)
  let p =
    F1.broadcast (module Amcast.A2) ~groups:2 ~d:2 ~origin:0 ~config:default
      ~seed:0
  in
  print_table
    ~title:
      "Theorem 5.2 — a run of A2 where m is A-BCast while processes are \
       reactive (quiescent) has latency degree 2"
    ~header:[ "claimed"; "measured"; "wall clock" ]
    [ [ "2"; degree_of p; wall_of p ] ]

(* ------------------------------------------------------------------ *)
(* P31 — empirical side of the genuine-multicast lower bound *)

let lower_bound () =
  let module R = Harness.Runner.Make (Amcast.A1) in
  let degrees = ref [] in
  for seed = 0 to 39 do
    let topo = Topology.symmetric ~groups:2 ~per_group:2 in
    let dep = R.deploy ~seed ~latency:Latency.wan_default topo in
    let id =
      R.cast_at dep
        ~at:(Sim_time.of_us (1_000 + (seed * 137)))
        ~origin:(seed mod 4) ~dest:[ 0; 1 ] ()
    in
    let r = R.run_deployment dep in
    match Harness.Metrics.latency_degree r id with
    | Some d -> degrees := d :: !degrees
    | None -> ()
  done;
  let min_d = List.fold_left min max_int !degrees in
  let max_d = List.fold_left max 0 !degrees in
  print_table
    ~title:
      "Propositions 3.1/3.2 — no genuine atomic multicast can deliver a \
       message addressed to two groups with latency degree < 2: minimum \
       over 40 jittered schedules of A1"
    ~header:[ "runs"; "claimed min"; "measured min"; "measured max" ]
    [ [ stri (List.length !degrees); ">= 2"; stri min_d; stri max_d ] ]

(* ------------------------------------------------------------------ *)
(* P39 — quiescence of A2 *)

let quiescence () =
  let module R = Harness.Runner.Make (Amcast.A2) in
  let topo = Topology.symmetric ~groups:3 ~per_group:2 in
  let rng = Rng.create 5 in
  let w =
    Harness.Workload.generate ~rng ~topology:topo ~n:20
      ~dest:Harness.Workload.To_all_groups
      ~arrival:(`Every (ms 10))
      ()
  in
  let r = R.run ~latency:F1.crisp topo w in
  let last_cast =
    List.fold_left
      (fun acc (c : Harness.Run_result.cast_event) -> Sim_time.max acc c.at)
      Sim_time.zero r.casts
  in
  let last_delivery =
    List.fold_left
      (fun acc (d : Harness.Run_result.delivery_event) ->
        Sim_time.max acc d.at)
      Sim_time.zero r.deliveries
  in
  let last_send =
    Option.value ~default:Sim_time.zero (Harness.Metrics.last_send_time r)
  in
  print_table
    ~title:
      "Proposition A.9 — quiescence: after finitely many A-BCasts the \
       deployment stops sending (20 broadcasts, then silence)"
    ~header:
      [
        "casts"; "last cast"; "last delivery"; "last send";
        "sends after last delivery"; "drained";
      ]
    [
      [
        stri (List.length r.casts);
        Sim_time.to_string last_cast;
        Sim_time.to_string last_delivery;
        Sim_time.to_string last_send;
        stri (Harness.Metrics.sends_after r last_delivery);
        string_of_bool r.drained;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* TRD — the latency/message-complexity tradeoff (Sections 1 and 6) *)

let tradeoff () =
  let groups = 8 and d = 2 in
  let rows =
    List.map
      (fun k ->
        let run proto =
          let p = F1.multicast proto ~groups ~d ~k ~config:default ~seed:0 in
          [ degree_of p; stri (fst p).inter_group_msgs ]
        in
        stri k :: (run (module Amcast.A1) @ run (module Amcast.Via_broadcast)))
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  print_table
    ~title:
      "Tradeoff — genuine multicast (A1) vs broadcast-to-all (A2-based), 8 \
       groups of 2: latency degree and inter-group messages as the \
       destination set grows"
    ~header:
      [
        "k"; "A1 degree"; "A1 inter msgs"; "via-bcast degree";
        "via-bcast inter msgs";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* OPT — Section 5.3's remark: broadcast frequency vs round duration *)

let a2_frequency () =
  let module R = Harness.Runner.Make (Amcast.A2) in
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let rows =
    List.map
      (fun gap_ms ->
        let rng = Rng.create 11 in
        let w =
          Harness.Workload.generate ~rng ~topology:topo ~n:30
            ~dest:Harness.Workload.To_all_groups
            ~arrival:(`Poisson (ms gap_ms))
            ()
        in
        let dep = R.deploy ~seed:3 ~latency:F1.crisp topo in
        ignore (R.schedule dep w);
        let r = R.run_deployment dep in
        let degs = List.filter_map snd (Harness.Metrics.latency_degrees r) in
        let avg =
          float_of_int (List.fold_left ( + ) 0 degs)
          /. float_of_int (max 1 (List.length degs))
        in
        let rounds = Amcast.A2.rounds_executed (R.node dep 0) in
        let latencies =
          List.filter_map
            (fun (c : Harness.Run_result.cast_event) ->
              Option.map Sim_time.to_ms_float
                (Harness.Metrics.delivery_latency r c.msg.Amcast.Msg.id))
            r.casts
        in
        let pct p =
          match Harness.Stats.percentile p latencies with
          | Some v -> Fmt.str "%.0fms" v
          | None -> "-"
        in
        let wall =
          match Harness.Stats.mean latencies with
          | Some w -> Fmt.str "%.0fms" w
          | None -> "-"
        in
        [
          stri gap_ms;
          Fmt.str "%.2f" avg;
          stri
            (List.fold_left
               (fun acc d -> if d <= 1 then acc + 1 else acc)
               0 degs);
          stri (List.length degs);
          stri rounds;
          wall;
          pct 50.;
          pct 95.;
        ])
      [ 200; 100; 50; 25; 10; 5 ]
  in
  print_table
    ~title:
      "Section 5.3 — A2 stays warm when the broadcast interval drops below \
       the round duration (~52ms here): mean latency degree over 30 \
       broadcasts"
    ~header:
      [
        "mean gap (ms)"; "mean degree"; "degree<=1 msgs"; "delivered";
        "rounds at p0"; "mean latency"; "p50"; "p95";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* ABL — A1's stage-skipping ablation *)

let a1_ablation () =
  let run_with config ~k =
    let module R = Harness.Runner.Make (Amcast.A1) in
    let topo = Topology.symmetric ~groups:4 ~per_group:2 in
    let dep = R.deploy ~seed:0 ~latency:F1.crisp ~config topo in
    (* A mixed workload: one single-group and one k-group multicast from
       each group. *)
    List.iteri
      (fun i g ->
        ignore
          (R.cast_at dep
             ~at:(ms (300 + (40 * i)))
             ~origin:(List.hd (Topology.members topo g))
             ~dest:[ g ] ());
        ignore
          (R.cast_at dep
             ~at:(ms (320 + (40 * i)))
             ~origin:(List.hd (Topology.members topo g))
             ~dest:(List.init k (fun j -> (g + j) mod 4))
             ()))
      (Topology.all_groups topo);
    let r = R.run_deployment dep in
    let instances =
      List.fold_left
        (fun acc pid ->
          acc + Amcast.A1.consensus_instances_executed (R.node dep pid))
        0
        (Topology.all_pids topo)
    in
    (instances, r.intra_group_msgs, Harness.Metrics.max_latency_degree r)
  in
  let rows =
    List.concat_map
      (fun k ->
        let skip = run_with Amcast.Protocol.Config.default ~k in
        let noskip = run_with Amcast.Protocol.Config.fritzke ~k in
        let render name (instances, intra, deg) =
          [ stri k; name; stri instances; stri intra; str_deg deg ]
        in
        [ render "skips on (A1)" skip; render "skips off ([5])" noskip ])
      [ 2; 3 ]
  in
  print_table
    ~title:
      "Ablation (Section 4.1) — A1's stage skipping: consensus instances \
       executed and intra-group messages, same workload (8 messages, half \
       single-group)"
    ~header:
      [ "k"; "configuration"; "consensus instances"; "intra msgs"; "max deg" ]
    rows

(* ------------------------------------------------------------------ *)
(* PRD — Section 5.3's future-work sentence, implemented: quiescence
   prediction strategies. The paper's rule stops rounds after the first
   useless one; Linger(n) tolerates n useless rounds before stopping,
   widening the window in which a broadcast rides a warm round (degree 1 /
   one round of latency) at the price of wasted rounds during lulls. *)

let prediction () =
  let module R = Harness.Runner.Make (Amcast.A2) in
  let run ~gap_ms ~prediction =
    let topo = Topology.symmetric ~groups:2 ~per_group:2 in
    let config = { Amcast.Protocol.Config.default with prediction } in
    let rng = Rng.create 21 in
    let w =
      Harness.Workload.generate ~rng ~topology:topo ~n:20
        ~dest:Harness.Workload.To_all_groups
        ~arrival:(`Poisson (ms gap_ms))
        ()
    in
    let dep = R.deploy ~seed:6 ~latency:F1.crisp ~config topo in
    ignore (R.schedule dep w);
    let r = R.run_deployment dep in
    let latencies =
      List.filter_map
        (fun (c : Harness.Run_result.cast_event) ->
          Option.map Sim_time.to_ms_float
            (Harness.Metrics.delivery_latency r c.msg.Amcast.Msg.id))
        r.casts
    in
    let mean =
      match Harness.Stats.mean latencies with
      | Some m -> Fmt.str "%.0fms" m
      | None -> "-"
    in
    (mean, Amcast.A2.rounds_executed (R.node dep 0))
  in
  let rows =
    List.concat_map
      (fun gap_ms ->
        let mk name prediction =
          let mean, rounds = run ~gap_ms ~prediction in
          [ stri gap_ms; name; mean; stri rounds ]
        in
        [
          mk "stop-when-idle (paper)" Amcast.Protocol.Config.Stop_when_idle;
          mk "linger 3" (Amcast.Protocol.Config.Linger { rounds = 3 });
          mk "linger 6" (Amcast.Protocol.Config.Linger { rounds = 6 });
        ])
      [ 60; 100; 150 ]
  in
  print_table
    ~title:
      "Section 5.3 (future work) — quiescence prediction strategies: mean \
       delivery latency vs rounds executed, 20 Poisson broadcasts on 2x2"
    ~header:[ "mean gap (ms)"; "strategy"; "mean latency"; "rounds at p0" ]
    rows

(* ------------------------------------------------------------------ *)
(* FLV — extension study: failover cost.

   Figure 1 is failure-free; the reason A1 exists at all (vs Skeen's 1987
   algorithm, equally degree-2) is fault tolerance. This experiment prices
   it: the ballot-0 coordinator of the remote destination group crashes
   right after the cast, losing its in-flight messages, and delivery then
   waits for the consensus timeout + detection before the next coordinator
   takes over. Delivery latency degrades linearly with the recovery knobs
   and correctness is untouched. *)

let failover () =
  let run ~detect_ms ~crash =
    let module R = Harness.Runner.Make (Amcast.A1) in
    let topo = Topology.symmetric ~groups:2 ~per_group:3 in
    let config =
      {
        Amcast.Protocol.Config.default with
        consensus_timeout = ms 500;
        oracle_delay = ms detect_ms;
      }
    in
    let faults =
      if crash then
        [
          (* Mid-instance: p3 (remote group's ballot-0 coordinator) has
             received m at ~351ms and its Accept fan-out is in flight. *)
          Harness.Runner.crash ~drop:Runtime.Engine.Lose_all_inflight
            ~at:(Sim_time.of_us 350_200) 3;
        ]
      else []
    in
    let dep = R.deploy ~seed:0 ~latency:F1.crisp ~config ~faults topo in
    let id = R.cast_at dep ~at:(ms 300) ~origin:0 ~dest:[ 0; 1 ] () in
    let r = R.run_deployment dep in
    match
      ( Harness.Metrics.latency_degree r id,
        Harness.Metrics.delivery_latency r id )
    with
    | deg, Some wall -> (deg, Sim_time.to_ms_float wall)
    | deg, None -> (deg, nan)
  in
  let rows =
    List.map
      (fun detect_ms ->
        let _, clean = run ~detect_ms ~crash:false in
        let deg, crashed = run ~detect_ms ~crash:true in
        [
          stri detect_ms;
          Fmt.str "%.0fms" clean;
          Fmt.str "%.0fms" crashed;
          Fmt.str "+%.0fms" (crashed -. clean);
          str_deg deg;
        ])
      [ 10; 50; 150 ]
  in
  print_table
    ~title:
      "Extension — failover: the remote group's coordinator crashes \
       mid-instance before its Accept fan-out lands (all in-flight \
       messages lost); recovery = failure detection + coordinator rotation"
    ~header:
      [
        "detection delay (ms)"; "failure-free"; "with crash"; "overhead";
        "degree (crash run)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* ASY — extension study: asymmetric WANs.

   Figure 1 assumes uniform inter-group latency. Real WANs are lopsided;
   with an asymmetric latency matrix the *shape* predictions change per
   algorithm: the ring's wall-clock latency depends on where its chain
   runs (it serialises over specific links), while A1's two symmetric
   phases always pay for the slowest destination pair. Latency degrees
   are unchanged — they count hops, not milliseconds — which this
   experiment also confirms. *)

let asymmetric () =
  (* Three sites: 0-1 close (20ms), 2 far from both (120ms). *)
  let inter_of a b =
    if (a = 0 && b = 1) || (a = 1 && b = 0) then ms 20
    else if a = b then ms 1
    else ms 120
  in
  let matrix =
    Array.init 3 (fun a -> Array.init 3 (fun b -> inter_of a b))
  in
  let latency = Latency.matrix ~intra:(ms 1) ~inter:matrix () in
  let rows =
    List.concat_map
      (fun k ->
        let mk name proto =
          let p =
            F1.multicast ~latency proto ~groups:3 ~d:2 ~k ~config:default
              ~seed:0
          in
          [ name; stri k; degree_of p; wall_of ~digits:0 p ]
        in
        [ mk "A1" (module Amcast.A1); mk "[4] ring" (module Amcast.Ring) ])
      [ 2; 3 ]
  in
  print_table
    ~title:
      "Extension — asymmetric WAN (sites 0-1 at 20ms, site 2 at 120ms): \
       latency degree is latency-model-independent, wall clock is not"
    ~header:[ "algorithm"; "k"; "degree"; "wall clock" ]
    rows

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("figure-1a", figure_1a);
    ("figure-1b", figure_1b);
    ("theorem-4-1", theorem_4_1);
    ("theorem-5-1", theorem_5_1);
    ("theorem-5-2", theorem_5_2);
    ("lower-bound", lower_bound);
    ("quiescence", quiescence);
    ("tradeoff", tradeoff);
    ("a2-frequency", a2_frequency);
    ("a1-ablation", a1_ablation);
    ("asymmetric", asymmetric);
    ("failover", failover);
    ("prediction", prediction);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let only =
    let rec find = function
      | "--only" :: id :: _ -> Some id
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  match only with
  | Some id -> (
    match List.assoc_opt id experiments with
    | Some f -> f ()
    | None ->
      Fmt.epr "unknown experiment %S; known: %a@." id
        Fmt.(list ~sep:(any ", ") string)
        (List.map fst experiments);
      exit 1)
  | None -> List.iter (fun (_, f) -> f ()) experiments
