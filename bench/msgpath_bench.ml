(* msgpath_bench — steady-state message-path economy of the fast lanes.

   Replays the Figure 1(a)/1(b) workloads (crisp latencies, the exact
   origin placements of `Harness.Figure1`, cast at 300ms) once through the
   fast lanes (Protocol.Config.default) and once through the reference
   message pattern (Protocol.Config.reference), and writes
   BENCH_msgpath.json with per-cell message counts, events, modeled bytes
   and wall clock.

   Two properties are checked; any failure exits non-zero:

   - identity: the fast lanes are an intra-group economy, so on every
     Figure 1 cell the inter-group message count and the latency degree
     must be bit-identical between the two modes;
   - economy: on a steady-state broadcast stream at d >= 3 the intra-group
     consensus messages per executed instance must drop by at least 2x
     (Multi-Paxos lease + coordinator-only Accepted/Decide: 4d-1 vs
     2d^2+2d-1 per instance once the lease is held).

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

type mode_run = {
  degree : int option;
  inter : int;
  intra : int;
  events : int;
  bytes : int;
  wall_s : float;
}

(* Runs the cell's probe once, timing it. *)
let mode_run ~seed (cell : F1.cell) config =
  let t0 = Unix.gettimeofday () in
  let (r : Harness.Run_result.t), id = cell.run ~config ~seed in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    degree = Harness.Metrics.latency_degree r id;
    inter = r.inter_group_msgs;
    intra = r.intra_group_msgs;
    events = r.events_executed;
    bytes = trace_bytes r.trace;
    wall_s;
  }

type cell = { spec : F1.cell; fast : mode_run; reference : mode_run }

let diverges c =
  c.fast.inter <> c.reference.inter || c.fast.degree <> c.reference.degree

let both ~seed (spec : F1.cell) =
  let fast = mode_run ~seed spec Amcast.Protocol.Config.default in
  let reference = mode_run ~seed spec Amcast.Protocol.Config.reference in
  let c = { spec; fast; reference } in
  Printf.printf
    "  %-9s %-10s g=%d d=%d k=%d  deg %s/%s  inter %d/%d  intra %d/%d  \
     bytes %d/%d%s\n\
     %!"
    spec.figure spec.algorithm spec.groups spec.d spec.k
    (match fast.degree with Some x -> string_of_int x | None -> "-")
    (match reference.degree with Some x -> string_of_int x | None -> "-")
    fast.inter reference.inter fast.intra reference.intra fast.bytes
    reference.bytes
    (if diverges c then "  DIVERGENT" else "");
  c

(* ------------------------------------------------------------------ *)
(* Steady state: a stream of broadcasts, intra-group consensus messages
   per executed consensus instance, fast vs reference. Instances are
   summed over one representative node per group (every group decides the
   same instance sequence for a broadcast workload), so the per-instance
   figure is the average across groups. *)

type steady = {
  s_protocol : string;
  s_groups : int;
  s_d : int;
  s_msgs : int;
  s_instances : int;
  fast_cons_intra : int;
  ref_cons_intra : int;
  fast_per_instance : float;
  ref_per_instance : float;
  ratio : float;
}

let steady_stream (type a) (module P : Amcast.Protocol.S with type t = a)
    ~(instances_at : a -> int) ~config ~seed ~groups ~d ~n =
  let module R = Harness.Runner.Make (P) in
  let topo = Topology.symmetric ~groups ~per_group:d in
  let dep = R.deploy ~seed ~latency:F1.crisp ~config topo in
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
  let run config =
    steady_stream (module P) ~instances_at ~config ~seed ~groups ~d ~n
  in
  let fast_cons_intra, fast_inst = run Amcast.Protocol.Config.default in
  let ref_cons_intra, ref_inst = run Amcast.Protocol.Config.reference in
  let per i inst = float_of_int i /. float_of_int (max 1 inst) in
  let fast_per_instance = per fast_cons_intra fast_inst in
  let ref_per_instance = per ref_cons_intra ref_inst in
  let s =
    {
      s_protocol = name;
      s_groups = groups;
      s_d = d;
      s_msgs = n;
      s_instances = fast_inst;
      fast_cons_intra;
      ref_cons_intra;
      fast_per_instance;
      ref_per_instance;
      ratio = ref_per_instance /. Float.max fast_per_instance 1e-9;
    }
  in
  Printf.printf
    "  steady %-3s g=%d d=%d n=%d  instances %d/%d  cons-intra/inst %.1f -> \
     %.1f  (%.2fx)\n\
     %!"
    name groups d n fast_inst ref_inst ref_per_instance fast_per_instance
    s.ratio;
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

let run_overlay_cell (module P : Amcast.Protocol.S) ~name ~ov_name ~ov ~seed
    ~d ~dest ~origin ~expect_genuine =
  let module R = Harness.Runner.Make (P) in
  let groups = Overlay.groups ov in
  let topo = Topology.symmetric ~groups ~per_group:d in
  let latency = Overlay.to_latency ov in
  let config = { Amcast.Protocol.Config.default with overlay = Some ov } in
  let dep = R.deploy ~seed ~latency ~config topo in
  let id = R.cast_at dep ~at:(ms 300) ~origin ~dest () in
  let r = R.run_deployment dep in
  let links, inter_c = overlay_crossings ov topo r.trace in
  let violations =
    Harness.Checker.check_all ~expect_genuine ~check_quiescence:true
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
    (* Bound in turn: list literals and [@] evaluate right to left. *)
    let genuine =
      List.map
        (fun (name, proto) ->
          run_overlay_cell proto ~name ~ov_name ~ov ~seed ~d ~dest ~origin
            ~expect_genuine:true)
        [
          ("a1", (module Amcast.A1 : Amcast.Protocol.S));
          ("skeen", (module Amcast.Skeen));
          ("whitebox", (module Amcast.Whitebox));
          ("flexcast", (module Amcast.Flexcast));
        ]
    in
    let a2 =
      run_overlay_cell
        (module Amcast.A2)
        ~name:"a2" ~ov_name ~ov ~seed ~d ~dest:(Topology.all_groups topo)
        ~origin:0 ~expect_genuine:false
    in
    genuine @ [ a2 ]
  in
  List.concat_map multicast
    [
      ("hub", Overlay.hub ~groups:4, [ 1; 3 ]);
      ("ring", Overlay.ring ~groups:5, [ 2; 4 ]);
    ]

(* ------------------------------------------------------------------ *)

let json_of_mode m =
  Printf.sprintf
    "{ \"degree\": %s, \"inter_msgs\": %d, \"intra_msgs\": %d, \"events\": \
     %d, \"bytes_modeled\": %d, \"wall_s\": %.6f }"
    (match m.degree with Some x -> string_of_int x | None -> "null")
    m.inter m.intra m.events m.bytes m.wall_s

let json_of_cell c =
  Printf.sprintf
    "    { \"experiment\": \"%s\", \"algorithm\": \"%s\", \"groups\": %d, \
     \"d\": %d, \"k\": %d,\n\
    \      \"fast\": %s,\n\
    \      \"reference\": %s,\n\
    \      \"inter_identical\": %b, \"degree_identical\": %b }"
    c.spec.figure c.spec.algorithm c.spec.groups c.spec.d c.spec.k
    (json_of_mode c.fast)
    (json_of_mode c.reference)
    (c.fast.inter = c.reference.inter)
    (c.fast.degree = c.reference.degree)

let json_of_overlay c =
  Printf.sprintf
    "    { \"topology\": \"%s\", \"algorithm\": \"%s\", \"groups\": %d, \
     \"d\": %d, \"k\": %d,\n\
    \      \"degree\": %s, \"inter_msgs\": %d, \"link_crossings\": %d, \
     \"intercontinental_msgs\": %d,\n\
    \      \"latency_ms\": %s, \"violations\": %d }"
    c.o_topology c.o_algorithm c.o_groups c.o_d c.o_k
    (match c.o_degree with Some x -> string_of_int x | None -> "null")
    c.o_inter_msgs c.o_link_crossings c.o_intercontinental
    (match c.o_latency_ms with
    | Some l -> Printf.sprintf "%.1f" l
    | None -> "null")
    (List.length c.o_violations)

let json_of_steady s =
  Printf.sprintf
    "    { \"protocol\": \"%s\", \"groups\": %d, \"d\": %d, \"msgs\": %d, \
     \"instances\": %d,\n\
    \      \"fast_cons_intra_msgs\": %d, \"reference_cons_intra_msgs\": %d,\n\
    \      \"fast_cons_intra_per_instance\": %.2f, \
     \"reference_cons_intra_per_instance\": %.2f, \"reduction\": %.2f }"
    s.s_protocol s.s_groups s.s_d s.s_msgs s.s_instances s.fast_cons_intra
    s.ref_cons_intra s.fast_per_instance s.ref_per_instance s.ratio

let () =
  let seed = ref 0 in
  let out = ref "BENCH_msgpath.json" in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | arg :: _ ->
      Printf.eprintf "msgpath_bench: unknown argument %S\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = !seed in
  Printf.printf
    "msgpath_bench: Figure 1 identity + steady-state economy, seed %d\n%!"
    seed;
  let cells = List.map (both ~seed) (F1.figure_1a @ F1.figure_1b) in
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
  let divergent = List.filter diverges cells in
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
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"amcast-bench-msgpath/v1\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"generated_unix_time\": %.0f,\n"
       (Unix.gettimeofday ()));
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string buf "  \"cells\": [\n";
  Buffer.add_string buf (String.concat ",\n" (List.map json_of_cell cells));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"steady_state\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map json_of_steady steadies));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"overlay_cells\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map json_of_overlay overlays));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"divergent_cells\": %d,\n" (List.length divergent));
  Buffer.add_string buf
    (Printf.sprintf "  \"overlay_violations\": %d,\n" overlay_violations);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"hub_intercontinental_flexcast\": %d,\n\
       \  \"hub_intercontinental_a1\": %d,\n"
       hub_flexcast hub_a1);
  Buffer.add_string buf
    (Printf.sprintf "  \"min_steady_state_reduction\": %.2f\n"
       (if min_ratio = infinity then 0. else min_ratio));
  Buffer.add_string buf "}\n";
  let oc = open_out !out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf
    "  wrote %s (%d cells, %d divergent; min steady-state reduction %.2fx)\n\
     %!"
    !out (List.length cells) (List.length divergent)
    (if min_ratio = infinity then 0. else min_ratio);
  if divergent <> [] then begin
    Printf.eprintf
      "msgpath_bench: FAIL — %d cell(s) where fast lanes change inter-group \
       counts or latency degrees\n"
      (List.length divergent);
    exit 1
  end;
  if min_ratio < 2.0 then begin
    Printf.eprintf
      "msgpath_bench: FAIL — steady-state consensus-message reduction %.2fx \
       < 2x at d >= 3\n"
      min_ratio;
    exit 1
  end;
  if overlay_violations > 0 then begin
    Printf.eprintf
      "msgpath_bench: FAIL — %d violation(s) in overlay cells (overlay \
       genuineness or agreement broken)\n"
      overlay_violations;
    exit 1
  end;
  if hub_flexcast >= hub_a1 then begin
    Printf.eprintf
      "msgpath_bench: FAIL — flexcast crossed %d inter-continental links \
       per cast on the hub, a1 %d; hop-by-hop routing must be strictly \
       cheaper\n"
      hub_flexcast hub_a1;
    exit 1
  end
