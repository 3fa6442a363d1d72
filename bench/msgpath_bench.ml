(* msgpath_bench — steady-state message-path economy of the fast lanes.

   Replays the Figure 1(a)/1(b) workloads (crisp latencies, the exact
   origin placements of `Harness.Figure1`, cast at 300ms) under
   Protocol.Config.default, and writes BENCH_msgpath.json with per-cell
   message counts, events, modeled bytes and wall clock. The Figure 1
   degrees and inter-group counts themselves are pinned by the tier-1
   suite.

   Gates; any failure exits non-zero:

   - economy: on a steady-state broadcast stream at d >= 3 the intra-group
     consensus messages per executed instance must be at most half the
     all-to-all Paxos closed form 2d^2+2d-1 (Multi-Paxos lease +
     coordinator-only Accepted/Decide: 4d-1 per instance once the lease
     is held);
   - overlays: every overlay cell passes its checks, and on the hub
     geometry flexcast crosses fewer inter-continental links than a1.

   Usage: msgpath_bench [--seed S] [--out PATH]
   Defaults: seed 0, ./BENCH_msgpath.json. *)

open Des
open Net

module F1 = Harness.Figure1

let ms = Sim_time.of_ms

(* Modeled wire sizes (bytes): a fixed envelope plus a per-kind body. Only
   the relative weights matter; the model prices what the fast lanes
   change — payload-bearing kinds against small acks. *)
let bytes_of_tag tag =
  let envelope = 40 in
  let body =
    match tag with
    | "rm.data" -> 256 (* carries the application payload *)
    | "rm.copy" | "rm.fetch" -> 8
    | "cons.suggest" | "cons.accept" | "cons.decide" | "cons.promise"
    | "cons.lease_promise" ->
      256 (* carry (or may carry) a proposal value *)
    | "cons.prepare" | "cons.accepted" | "cons.lease_prepare" -> 16
    | "a2.bundle" -> 512 (* a whole round's message set *)
    | "a1.ts" | "ring.handoff" | "ring.final" | "scalable.stamp" -> 264
    | _ -> 64
  in
  envelope + body

let trace_bytes trace =
  List.fold_left
    (fun acc entry ->
      match entry with
      | Runtime.Trace.Send { tag; _ } -> acc + bytes_of_tag tag
      | _ -> acc)
    0
    (Runtime.Trace.entries trace)

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let intra_cons_msgs trace =
  List.fold_left
    (fun acc entry ->
      match entry with
      | Runtime.Trace.Send { tag; inter_group = false; _ }
        when has_prefix "cons." tag ->
        acc + 1
      | _ -> acc)
    0
    (Runtime.Trace.entries trace)

type cell = {
  spec : F1.cell;
  degree : int option;
  inter : int;
  intra : int;
  events : int;
  bytes : int;
  wall_s : float;
}

(* Runs the cell's probe once under the default config, timing it. *)
let run_cell ~seed (spec : F1.cell) =
  let t0 = Unix.gettimeofday () in
  let (r : Harness.Run_result.t), id =
    spec.run ~config:Amcast.Protocol.Config.default ~seed
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let c =
    {
      spec;
      degree = Harness.Metrics.latency_degree r id;
      inter = r.inter_group_msgs;
      intra = r.intra_group_msgs;
      events = r.events_executed;
      bytes = trace_bytes r.trace;
      wall_s;
    }
  in
  Printf.printf "  %-9s %-10s g=%d d=%d k=%d  deg %s  inter %d  intra %d  \
                 bytes %d\n%!"
    spec.figure spec.algorithm spec.groups spec.d spec.k
    (match c.degree with Some x -> string_of_int x | None -> "-")
    c.inter c.intra c.bytes;
  c

(* ------------------------------------------------------------------ *)
(* Steady state: a stream of broadcasts, intra-group consensus messages
   per executed consensus instance, against the all-to-all Paxos closed
   form. Instances are summed over one representative node per group
   (every group decides the same instance sequence for a broadcast
   workload), so the per-instance figure is the average across groups. *)

type steady = {
  s_protocol : string;
  s_groups : int;
  s_d : int;
  s_msgs : int;
  s_instances : int;
  cons_intra : int;
  per_instance : float;
  all_to_all_per_instance : int; (* 2d^2+2d-1 *)
  ratio : float;
}

let steady_stream (type a) (module P : Amcast.Protocol.S with type t = a)
    ~(instances_at : a -> int) ~seed ~groups ~d ~n =
  let module R = Harness.Runner.Make (P) in
  let topo = Topology.symmetric ~groups ~per_group:d in
  let dep = R.deploy ~seed ~latency:F1.crisp topo in
  let pids = Array.of_list (Topology.all_pids topo) in
  for i = 0 to n - 1 do
    ignore
      (R.cast_at dep
         ~at:(ms (300 + (20 * i)))
         ~origin:pids.(i mod Array.length pids)
         ~dest:(Topology.all_groups topo) ())
  done;
  let r = R.run_deployment dep in
  let instances =
    List.fold_left
      (fun acc g ->
        acc + instances_at (R.node dep (List.hd (Topology.members topo g))))
      0
      (Topology.all_groups topo)
  in
  (intra_cons_msgs r.trace, instances)

let steady_cell (type a) name (module P : Amcast.Protocol.S with type t = a)
    ~(instances_at : a -> int) ~seed ~groups ~d ~n =
  let cons_intra, instances =
    steady_stream (module P) ~instances_at ~seed ~groups ~d ~n
  in
  let per_instance =
    float_of_int cons_intra /. float_of_int (max 1 instances)
  in
  let all_to_all = (2 * d * d) + (2 * d) - 1 in
  let s =
    {
      s_protocol = name;
      s_groups = groups;
      s_d = d;
      s_msgs = n;
      s_instances = instances;
      cons_intra;
      per_instance;
      all_to_all_per_instance = all_to_all;
      ratio = float_of_int all_to_all /. Float.max per_instance 1e-9;
    }
  in
  Printf.printf
    "  steady %-3s g=%d d=%d n=%d  instances %d  cons-intra/inst %.2f vs \
     all-to-all %d  (%.2fx)\n\
     %!"
    name groups d n instances per_instance all_to_all s.ratio;
  s

(* ------------------------------------------------------------------ *)
(* Overlay cells: one multicast over a non-clique WAN geometry, per
   protocol. The overlay's routed-path delays are the latency model, so a
   clique-model protocol's direct spoke-to-spoke send models traffic that
   physically traverses every link on the route — it is charged
   [Overlay.hops] link crossings ([Overlay.inter_crossings] of them
   inter-continental) — while flexcast forwards hop by hop and pays one
   link per send. Genuineness (overlay-aware: off-path groups silent) is
   asserted by the checker on every genuine-protocol cell. *)

type overlay_cell = {
  o_topology : string;
  o_algorithm : string;
  o_groups : int;
  o_d : int;
  o_k : int;
  o_degree : int option;
  o_inter_msgs : int;
  o_link_crossings : int; (* overlay links traversed, all classes *)
  o_intercontinental : int; (* Intercontinental links traversed *)
  o_latency_ms : float option;
  o_violations : string list;
}

let overlay_crossings ov topo trace =
  List.fold_left
    (fun ((links, inter) as acc) entry ->
      match entry with
      | Runtime.Trace.Send { src; dst; inter_group = true; _ } ->
        let sg = Topology.group_of topo src
        and dg = Topology.group_of topo dst in
        ( links + Overlay.hops ov ~src:sg ~dst:dg,
          inter + Overlay.inter_crossings ov ~src:sg ~dst:dg )
      | _ -> acc)
    (0, 0)
    (Runtime.Trace.entries trace)

let run_overlay_cell (e : Amcast.Catalogue.entry) ~ov_name ~ov ~seed ~d ~dest
    ~origin =
  let module P = (val e.proto) in
  let module R = Harness.Runner.Make (P) in
  let name = e.name in
  let groups = Overlay.groups ov in
  let topo = Topology.symmetric ~groups ~per_group:d in
  let latency = Overlay.to_latency ov in
  let config = { Amcast.Protocol.Config.default with overlay = Some ov } in
  let dep = R.deploy ~seed ~latency ~config topo in
  let id = R.cast_at dep ~at:(ms 300) ~origin ~dest () in
  let r = R.run_deployment dep in
  let links, inter_c = overlay_crossings ov topo r.trace in
  let violations =
    Harness.Checker.check_all ~expect_genuine:e.genuine ~check_quiescence:true
      ~overlay:ov r
  in
  let c =
    {
      o_topology = ov_name;
      o_algorithm = name;
      o_groups = groups;
      o_d = d;
      o_k = List.length dest;
      o_degree = Harness.Metrics.latency_degree r id;
      o_inter_msgs = r.inter_group_msgs;
      o_link_crossings = links;
      o_intercontinental = inter_c;
      o_latency_ms = Harness.Metrics.mean_delivery_latency_ms r;
      o_violations = violations;
    }
  in
  Printf.printf
    "  overlay %-5s %-9s g=%d d=%d k=%d  deg %s  inter %d  links %d  \
     intercontinental %d  lat %s%s\n\
     %!"
    ov_name name groups d (List.length dest)
    (match c.o_degree with Some x -> string_of_int x | None -> "-")
    c.o_inter_msgs links inter_c
    (match c.o_latency_ms with
    | Some l -> Printf.sprintf "%.0fms" l
    | None -> "-")
    (if violations = [] then "" else "  VIOLATIONS");
  c

(* Hub: spokes 1 and 3 multicast (origin in the last destination group,
   the Figure 1(a) placement), so every clique-model direct send between
   the two spokes crosses the hub's two inter-continental links. Ring:
   groups 2 and 4 of a 5-ring, with group 3 an interior relay group on
   the 2--4 stamp route. A2 is broadcast-only: its cells cast to every
   group from group 0. *)
let overlay_cells ~seed =
  let multicast (ov_name, ov, dest) =
    let d = 2 in
    let topo = Topology.symmetric ~groups:(Overlay.groups ov) ~per_group:d in
    let origin =
      List.hd (Topology.members topo (List.nth dest (List.length dest - 1)))
    in
    let cell name ~dest ~origin =
      run_overlay_cell
        (Option.get (Amcast.Catalogue.find name))
        ~ov_name ~ov ~seed ~d ~dest ~origin
    in
    (* Bound in turn: list literals and [@] evaluate right to left. *)
    let genuine =
      List.map
        (fun name -> cell name ~dest ~origin)
        [ "a1"; "skeen"; "whitebox"; "flexcast" ]
    in
    let a2 = cell "a2" ~dest:(Topology.all_groups topo) ~origin:0 in
    genuine @ [ a2 ]
  in
  List.concat_map multicast
    [
      ("hub", Overlay.hub ~groups:4, [ 1; 3 ]);
      ("ring", Overlay.ring ~groups:5, [ 2; 4 ]);
    ]

(* ------------------------------------------------------------------ *)

open Harness.Bench_json

let json_of_cell c =
  Obj
    [
      ("experiment", String c.spec.figure);
      ("algorithm", String c.spec.algorithm);
      ("groups", Int c.spec.groups);
      ("d", Int c.spec.d);
      ("k", Int c.spec.k);
      ("degree", opt (fun x -> Int x) c.degree);
      ("inter_msgs", Int c.inter);
      ("intra_msgs", Int c.intra);
      ("events", Int c.events);
      ("bytes_modeled", Int c.bytes);
      ("wall_s", float 6 c.wall_s);
    ]

let json_of_overlay c =
  Obj
    [
      ("topology", String c.o_topology);
      ("algorithm", String c.o_algorithm);
      ("groups", Int c.o_groups);
      ("d", Int c.o_d);
      ("k", Int c.o_k);
      ("degree", opt (fun x -> Int x) c.o_degree);
      ("inter_msgs", Int c.o_inter_msgs);
      ("link_crossings", Int c.o_link_crossings);
      ("intercontinental_msgs", Int c.o_intercontinental);
      ("latency_ms", opt (float 1) c.o_latency_ms);
      ("violations", Int (List.length c.o_violations));
    ]

let json_of_steady s =
  Obj
    [
      ("protocol", String s.s_protocol);
      ("groups", Int s.s_groups);
      ("d", Int s.s_d);
      ("msgs", Int s.s_msgs);
      ("instances", Int s.s_instances);
      ("cons_intra_msgs", Int s.cons_intra);
      ("cons_intra_per_instance", float 2 s.per_instance);
      ("all_to_all_per_instance", Int s.all_to_all_per_instance);
      ("reduction", float 2 s.ratio);
    ]

let () =
  let seed = ref 0 in
  let out = ref "BENCH_msgpath.json" in
  parse_flags ~usage:"usage: msgpath_bench [--seed S] [--out PATH]"
    [
      ("--seed", Arg.Set_int seed, "S run seed (default 0)");
      ("--out", Arg.Set_string out, "PATH output file (default BENCH_msgpath.json)");
    ];
  let seed = !seed in
  Printf.printf
    "msgpath_bench: Figure 1 cells + steady-state economy, seed %d\n%!" seed;
  let cells = List.map (run_cell ~seed) (F1.figure_1a @ F1.figure_1b) in
  let overlays = overlay_cells ~seed in
  let steadies =
    let a1 =
      steady_cell "a1"
        (module Amcast.A1)
        ~instances_at:Amcast.A1.consensus_instances_executed ~seed ~groups:2
        ~d:3 ~n:20
    in
    let a2 =
      steady_cell "a2"
        (module Amcast.A2)
        ~instances_at:Amcast.A2.rounds_executed ~seed ~groups:2 ~d:3 ~n:20
    in
    [ a1; a2 ]
  in
  let min_ratio =
    List.fold_left (fun acc s -> Float.min acc s.ratio) infinity steadies
  in
  (* Overlay gates: every overlay cell passes its checks (including
     overlay genuineness), and on the hub geometry flexcast's hop-by-hop
     routing crosses strictly fewer inter-continental links per cast than
     a1's direct sends. *)
  let overlay_violations =
    List.fold_left (fun acc c -> acc + List.length c.o_violations) 0 overlays
  in
  let intercontinental ~topology ~algorithm =
    List.find_map
      (fun c ->
        if c.o_topology = topology && c.o_algorithm = algorithm then
          Some c.o_intercontinental
        else None)
      overlays
    |> Option.get
  in
  let hub_flexcast = intercontinental ~topology:"hub" ~algorithm:"flexcast" in
  let hub_a1 = intercontinental ~topology:"hub" ~algorithm:"a1" in
  let reported_ratio = if min_ratio = infinity then 0. else min_ratio in
  Printf.printf
    "  %d cells; min steady-state reduction %.2fx\n%!" (List.length cells)
    reported_ratio;
  write ~schema:"amcast-bench-msgpath/v2" ~out:!out
    ~gates:
      [
        ("steady_state_reduction_2x", not (min_ratio < 2.0));
        ("no_overlay_violations", overlay_violations = 0);
        ("hub_flexcast_fewer_intercontinental", hub_flexcast < hub_a1);
      ]
    [
      ("seed", Int seed);
      ("cells", List (List.map json_of_cell cells));
      ("steady_state", List (List.map json_of_steady steadies));
      ("overlay_cells", List (List.map json_of_overlay overlays));
      ("overlay_violations", Int overlay_violations);
      ("hub_intercontinental_flexcast", Int hub_flexcast);
      ("hub_intercontinental_a1", Int hub_a1);
      ("min_steady_state_reduction", float 2 reported_ratio);
    ]
