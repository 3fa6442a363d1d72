open Des
open Net

let crisp =
  Latency.uniform ~intra:(Sim_time.of_us 1_000) ~inter:(Sim_time.of_us 50_000)
    ()

let ms = Sim_time.of_ms

type probe = Run_result.t * Runtime.Msg_id.t

let multicast ?(latency = crisp) ?until (module P : Amcast.Protocol.S) ~groups
    ~d ~k ~config ~seed =
  let module R = Runner.Make (P) in
  let topo = Topology.symmetric ~groups ~per_group:d in
  let origin = List.hd (Topology.members topo (k - 1)) in
  let dep = R.deploy ~seed ~latency ~config topo in
  let id = R.cast_at dep ~at:(ms 300) ~origin ~dest:(List.init k Fun.id) () in
  (R.run_deployment ?until dep, id)

let broadcast ?until (module P : Amcast.Protocol.S) ~groups ~d ~origin ~config
    ~seed =
  let module R = Runner.Make (P) in
  let topo = Topology.symmetric ~groups ~per_group:d in
  let dep = R.deploy ~seed ~latency:crisp ~config topo in
  let id =
    R.cast_at dep ~at:(ms 300) ~origin ~dest:(Topology.all_groups topo) ()
  in
  (R.run_deployment ?until dep, id)

let a2_warm ~groups ~d ~config ~seed =
  let module R = Runner.Make (Amcast.A2) in
  let topo = Topology.symmetric ~groups ~per_group:d in
  let all = Topology.all_groups topo in
  let warmed_up () =
    let dep = R.deploy ~seed ~latency:crisp ~config topo in
    (dep, R.cast_at dep ~at:(ms 1) ~origin:0 ~dest:all ())
  in
  let warm_delivery =
    let dep, warm = warmed_up () in
    let r = R.run_deployment dep in
    let at_p0 =
      List.find
        (fun (e : Run_result.delivery_event) -> e.pid = 0)
        (Run_result.deliveries_of r warm)
    in
    at_p0.at
  in
  let dep, _ = warmed_up () in
  let probe =
    R.cast_at dep
      ~at:(Sim_time.add warm_delivery (ms 2))
      ~origin:0 ~dest:all ()
  in
  (R.run_deployment dep, probe)

type measure = Probe | Saturated_stream

type cell = {
  figure : string;
  algorithm : string;
  label : string;
  groups : int;
  d : int;
  k : int;
  paper_degree : int;
  paper_msgs : string;
  formula : Complexity.cost option;
  measure : measure;
  run : config:Amcast.Protocol.Config.t -> seed:int -> probe;
}

let detmerge_config config =
  { config with Amcast.Protocol.Config.null_period = ms 200 }

(* A catalogue entry's module, and the horizon its probe runs under if it
   never quiesces ([1]'s null stream). *)
let resolve name =
  let e = Option.get (Amcast.Catalogue.find name) in
  (e.proto, if e.quiescent then None else Some (Sim_time.of_sec 2.))

let figure_1a =
  let groups = 4 in
  List.concat_map
    (fun (k, d) ->
      let cell algorithm label paper_msgs formula ?(measure = Probe) run =
        let formula = formula ~k ~d in
        {
          figure = "figure-1a";
          algorithm;
          label;
          groups;
          d;
          k;
          paper_degree = formula.Complexity.latency_degree;
          paper_msgs;
          formula = Some formula;
          measure;
          run;
        }
      in
      let mc name =
        let proto, until = resolve name in
        multicast ?until proto ~groups ~d ~k
      in
      [
        cell "ring" "[4] ring" "O(kd^2)" Complexity.ring (mc "ring");
        cell "scalable" "[10] scalable" "O(k^2d^2)" Complexity.scalable
          (mc "scalable");
        cell "fritzke" "[5] fritzke" "O(k^2d^2)" Complexity.fritzke
          (mc "fritzke");
        cell "a1" "A1" "O(k^2d^2)" Complexity.a1 (mc "a1");
        cell "detmerge" "[1] detmerge" "O(kd)" Complexity.detmerge_multicast
          ~measure:Saturated_stream (fun ~config ->
            mc "detmerge" ~config:(detmerge_config config));
      ])
    [ (2, 1); (2, 2); (2, 3); (3, 2); (4, 2) ]

let figure_1b =
  List.concat_map
    (fun (groups, d) ->
      let cell algorithm label paper_degree paper_msgs ?(measure = Probe) run =
        {
          figure = "figure-1b";
          algorithm;
          label;
          groups;
          d;
          k = groups;
          paper_degree;
          paper_msgs;
          formula = None;
          measure;
          run;
        }
      in
      let bc name =
        let proto, until = resolve name in
        broadcast ?until proto ~groups ~d
      in
      [
        cell "optimistic" "[12] optimistic" 2 "O(n)"
          (bc "optimistic" ~origin:d);
        cell "sequencer" "[13] sequencer" 2 "O(n^2)"
          (bc "sequencer" ~origin:(if d > 1 then 1 else 0));
        cell "a2-cold" "A2 (cold)" 2 "O(n^2)" (bc "a2" ~origin:0);
        cell "a2-warm" "A2 (warm)" 1 "O(n^2)" (a2_warm ~groups ~d);
        cell "detmerge" "[1] detmerge" 1 "O(n)" ~measure:Saturated_stream
          (fun ~config ->
            bc "detmerge" ~origin:0 ~config:(detmerge_config config));
      ])
    [ (2, 2); (3, 2); (4, 2); (3, 3) ]

type counts = { degree : int option; inter_msgs : int }

let saturated_stream c =
  let module R = Runner.Make (Amcast.Detmerge) in
  let topo = Topology.symmetric ~groups:c.groups ~per_group:c.d in
  let config = detmerge_config Amcast.Protocol.Config.default in
  let dep = R.deploy ~seed:0 ~latency:crisp ~config topo in
  List.iter
    (fun origin ->
      for i = 0 to 4 do
        ignore
          (R.cast_at dep
             ~at:(ms (300 + (20 * i) + origin))
             ~origin ~dest:(List.init c.k Fun.id) ())
      done)
    (Topology.all_pids topo);
  let r = R.run_deployment ~until:(Sim_time.of_sec 1.5) dep in
  let pubs =
    Option.value ~default:0
      (List.assoc_opt "dm.pub" (Metrics.messages_by_tag r))
  in
  {
    degree = Metrics.min_latency_degree r;
    inter_msgs = pubs / max 1 (List.length r.casts);
  }

let counts c =
  match c.measure with
  | Probe ->
    let r, id = c.run ~config:Amcast.Protocol.Config.default ~seed:0 in
    { degree = Metrics.latency_degree r id; inter_msgs = r.inter_group_msgs }
  | Saturated_stream -> saturated_stream c
