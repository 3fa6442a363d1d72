(* Identity test of [Timed.Make]: wrapping a protocol must not change what
   it does. For every protocol the workloads run, a small seeded run with
   and without the wrapper must give equal per-pid delivery sequences,
   event counts and checker verdicts, and a batch of nemesis campaign
   scenarios equal outcomes. A fixed sequence of in-process submissions
   through [Kv_service.Make (Timed (A1))] must leave the same replica logs
   as the plain service.

   dune build @perfbench/identity   (exit 0 = identical) *)

open Harness

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "MISMATCH %s\n%!" what
  end

let protocols =
  ("a1", (module Amcast.A1 : Amcast.Protocol.S), Amcast.Protocol.Config.default,
   None, false)
  :: List.map
       (fun (t : Sim.target) ->
         (t.tname, t.proto, t.config, t.overlay, t.broadcast_only))
       Sim.targets

let observe (module P : Amcast.Protocol.S) ~config ~overlay ~broadcast_only ~seed =
  let module R = Runner.Make (P) in
  let topo = Net.Topology.symmetric ~groups:3 ~per_group:3 in
  let latency, config, ov =
    match overlay with
    | None -> (Net.Latency.wan_default, config, None)
    | Some k ->
      let ov = Net.Overlay.of_kind k ~groups:3 in
      (Net.Overlay.to_latency ov, { config with Amcast.Protocol.Config.overlay = Some ov },
       Some ov)
  in
  let workload =
    Workload.generate ~rng:(Des.Rng.create seed) ~topology:topo ~n:40
      ~dest:(if broadcast_only then Workload.To_all_groups else Workload.Random_groups 3)
      ~arrival:(`Poisson (Des.Sim_time.of_ms 10)) ~conflict:Sim.mix_conflict ()
  in
  let r = R.run ~seed ~latency ~config topo workload in
  let seqs =
    List.map
      (fun p ->
        List.map
          (fun (m : Amcast.Msg.t) -> Runtime.Msg_id.to_string m.id)
          (Run_result.sequence_of r p))
      (Net.Topology.all_pids topo)
  in
  let conflict =
    match config.Amcast.Protocol.Config.conflict with
    | Amcast.Conflict.Total -> None
    | c -> Some c
  in
  (seqs, r.Run_result.events_executed,
   Checker.check_all ~expect_genuine:(not broadcast_only) ~check_quiescence:true
     ?conflict ?overlay:ov r)

let des_identity () =
  List.iter
    (fun (name, proto, config, overlay, broadcast_only) ->
      let (module P : Amcast.Protocol.S) = proto in
      let timed = (module Timed.Make (P) : Amcast.Protocol.S) in
      List.iter
        (fun seed ->
          let s0, e0, v0 = observe proto ~config ~overlay ~broadcast_only ~seed in
          let s1, e1, v1 = observe timed ~config ~overlay ~broadcast_only ~seed in
          check (Printf.sprintf "%s seed %d: delivery sequences" name seed) (s0 = s1);
          check (Printf.sprintf "%s seed %d: events_executed %d vs %d" name seed e0 e1)
            (e0 = e1);
          check (Printf.sprintf "%s seed %d: verdicts" name seed) (v0 = v1))
        [ 1; 2; 3 ];
      ignore (Timed.drain ());
      Printf.printf "%-9s sequences, events and verdicts identical\n%!" name)
    protocols;
  List.iter
    (fun (t : Sim.target) ->
      let (module P : Amcast.Protocol.S) = t.proto in
      let timed = (module Timed.Make (P) : Amcast.Protocol.S) in
      let outcome proto i =
        let o =
          Campaign.run_one proto ~config:t.config ~conflict:Sim.mix_conflict
            ?overlay_kind:t.overlay ~expect_genuine:t.expect_genuine
            ~check_quiescence:true
            (Campaign.scenario_at ~broadcast_only:t.broadcast_only
               ~with_crashes:t.with_crashes ~with_nemesis:true ~seed:11 i)
        in
        (o.Campaign.violations, o.delivered, o.steps, o.retained, o.max_degree)
      in
      for i = 0 to 39 do
        check (Printf.sprintf "%s scenario %d: campaign outcome" t.tname i)
          (outcome t.proto i = outcome timed i)
      done;
      ignore (Timed.drain ());
      Printf.printf "%-9s 40 nemesis scenarios identical\n%!" t.tname)
    Sim.targets

(* Submit one command at a time and wait until every replica of its group
   applied it, so the order is fixed and the logs must match exactly. *)
let kv_logs (module P : Amcast.Protocol.S) ~base_port ~dir =
  let module S = Transport.Kv_service.Make (P) in
  let t = S.create ~seed:3 ~base_port ~dir Kv_open.topology in
  let applied = Array.make (Net.Topology.n_processes Kv_open.topology) 0 in
  for i = 0 to 59 do
    let key = Printf.sprintf "k%d" (i mod 8) in
    let cmd =
      match i mod 3 with
      | 0 -> Transport.Kv.Set (key, Printf.sprintf "v%d" i)
      | 1 -> Transport.Kv.Get key
      | _ -> if i mod 5 = 0 then Transport.Kv.Del key else Transport.Kv.Set (key, "x")
    in
    let g = S.group_of_key t key in
    ignore (S.submit t ~origin:(S.contact_for t key) cmd);
    let members = Net.Topology.members Kv_open.topology g in
    List.iter (fun p -> applied.(p) <- applied.(p) + 1) members;
    if not (S.await (fun () -> List.for_all (fun p -> S.applied t p = applied.(p)) members))
    then check (Printf.sprintf "kv command %d never applied" i) false
  done;
  let logs =
    List.map (fun p -> List.map Transport.Kv.encode (S.log_of t p))
      (Net.Topology.all_pids Kv_open.topology)
  in
  let consistent = S.check_consistency t = [] in
  S.stop t;
  (logs, consistent)

let kv_identity () =
  let dir = Printf.sprintf "perfbench-identity-%d" (Unix.getpid ()) in
  let base_port = Kv_open.free_base_port 0 in
  let l0, c0 = kv_logs (module Amcast.A1) ~base_port ~dir in
  let l1, c1 = kv_logs (module Timed.Make (Amcast.A1)) ~base_port ~dir in
  check "kv replica logs" (l0 = l1);
  check "kv consistency" (c0 && c1);
  Kv_open.remove_dir dir;
  Printf.printf "kv        60 submitted commands, replica logs identical\n%!"

let () =
  des_identity ();
  kv_identity ();
  if !failures > 0 then begin
    Printf.printf "identity: %d mismatches\n" !failures;
    exit 1
  end
  else print_endline "identity: Timed is transparent"
