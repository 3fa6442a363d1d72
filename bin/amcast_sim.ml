(* amcast_sim — run any protocol of the Amcast.Catalogue on a simulated WAN
   from the command line and report deliveries, latency degrees, message
   counts and the correctness checks. The entry's traits pick the run
   shape and the checks: broadcast-only protocols cast to every group, a
   protocol that never quiesces runs under a horizon, and a genuine one
   has its genuineness checked.

   Examples:
     amcast_sim --protocol a1 --groups 3 --per-group 2 --messages 10
     amcast_sim --protocol a2 --messages 5 --gap-ms 10 --print-trace
     amcast_sim --protocol a1 --per-group 3 --crash 2@5 --seed 7 *)

open Des
open Net
open Cmdliner

let run_cli (proto : Amcast.Catalogue.entry) groups per_group messages seed
    gap_ms poisson kmax crashes inter_ms intra_ms horizon_ms print_trace
    print_timeline heartbeat_fd fast_lanes batch batch_delay_ms pipeline
    conflict conflict_rate topology_kind =
  let topo = Topology.symmetric ~groups ~per_group in
  (* --topology replaces the uniform latency pair with the overlay's
     routed-path delays and hands the overlay to the protocol config
     (flexcast routes along it; clique-model protocols just pay the
     routed latencies). *)
  let overlay =
    match topology_kind with
    | None | Some Overlay.Clique -> None
    | Some k -> (
      try Some (Overlay.of_kind k ~groups)
      with Invalid_argument m ->
        Fmt.epr "amcast_sim: %s@." m;
        exit 2)
  in
  let latency =
    match overlay with
    | Some ov -> Overlay.to_latency ~intra:(Sim_time.of_ms intra_ms) ov
    | None ->
      Latency.uniform
        ~intra:(Sim_time.of_ms intra_ms)
        ~inter:(Sim_time.of_ms inter_ms)
        ()
  in
  if conflict_rate < 0.0 || conflict_rate > 1.0 then (
    Fmt.epr "amcast_sim: --conflict-rate must be in [0, 1]@.";
    exit 2);
  let conflict_rel =
    match conflict with
    | `Total -> Amcast.Conflict.total
    | `Key -> Amcast.Conflict.payload_key
    | `None -> Amcast.Conflict.never
  in
  let rng = Rng.create seed in
  let dest_kind =
    if proto.broadcast_only then Harness.Workload.To_all_groups
    else Harness.Workload.Random_groups (min kmax groups)
  in
  let workload =
    Harness.Workload.generate ~rng ~topology:topo ~n:messages ~dest:dest_kind
      ~arrival:
        (if poisson then `Poisson (Sim_time.of_ms gap_ms)
         else `Every (Sim_time.of_ms gap_ms))
      ?conflict:
        (match conflict with
        | `Key -> Some (Harness.Workload.conflict_spec conflict_rate)
        | `Total | `None -> None)
      ()
  in
  let faults =
    List.map
      (fun (pid, at_ms) ->
        Harness.Runner.crash ~at:(Sim_time.of_ms at_ms) pid)
      crashes
  in
  let until =
    match horizon_ms with
    | Some h -> Some (Sim_time.of_ms h)
    | None ->
      if not proto.quiescent then
        Some (Sim_time.of_ms (2_000 + (messages * gap_ms)))
      else None
  in
  let config =
    if heartbeat_fd then
      {
        Amcast.Protocol.Config.default with
        fd_mode =
          Amcast.Protocol.Config.Heartbeat
            {
              period = Sim_time.of_ms 5;
              timeout = Sim_time.of_ms (4 * intra_ms * 10);
            };
      }
    else Amcast.Protocol.Config.default
  in
  if batch < 1 then (
    Fmt.epr "amcast_sim: --batch must be >= 1@.";
    exit 2);
  if pipeline < 1 then (
    Fmt.epr "amcast_sim: --pipeline must be >= 1@.";
    exit 2);
  let config =
    {
      config with
      Amcast.Protocol.Config.fast_lanes;
      batch_max = batch;
      batch_delay = Sim_time.of_ms batch_delay_ms;
      pipeline;
      conflict = conflict_rel;
      overlay;
    }
  in
  let until =
    (* A heartbeat detector never quiesces: force a horizon. *)
    if heartbeat_fd && until = None then
      Some (Sim_time.of_ms (3_000 + (messages * gap_ms)))
    else until
  in
  let (module P) = proto.proto in
  let module R = Harness.Runner.Make (P) in
  let r = R.run ~seed ~latency ~config ~faults ?until topo workload in
  Fmt.pr "== %s on %d groups x %d processes ==@." P.name groups per_group;
  Fmt.pr "%a@." Harness.Run_result.pp_summary r;
  Fmt.pr "@.per-message latency degrees:@.";
  List.iter
    (fun (id, deg) ->
      Fmt.pr "  %a: %s@." Runtime.Msg_id.pp id
        (match deg with Some d -> string_of_int d | None -> "undelivered"))
    (Harness.Metrics.latency_degrees r);
  (match Harness.Metrics.mean_delivery_latency_ms r with
  | Some l -> Fmt.pr "@.mean cast-to-last-delivery: %.1fms@." l
  | None -> ());
  Fmt.pr "@.inter-group messages by kind:@.";
  List.iter
    (fun (tag, n) -> Fmt.pr "  %-16s %d@." tag n)
    (Harness.Metrics.messages_by_tag r);
  if print_trace then Fmt.pr "@.trace:@.%a@." Runtime.Trace.pp r.trace;
  if print_timeline then
    Fmt.pr "@.timeline:@.%a@."
      (Harness.Trace_render.pp ?max_rows:None ~topology:topo)
      r.trace;
  let violations =
    Harness.Checker.check_all ~expect_genuine:proto.genuine
      ?conflict:
        (match conflict with `Total -> None | `Key | `None -> Some conflict_rel)
      ?overlay r
  in
  if violations = [] then begin
    Fmt.pr "@.all correctness checks passed.@.";
    0
  end
  else begin
    Fmt.pr "@.VIOLATIONS:@.%a@."
      Fmt.(list ~sep:(any "@.") string)
      violations;
    1
  end

(* ----- cmdliner terms ----- *)

let proto_t =
  let names = List.map (fun (e : Amcast.Catalogue.entry) -> e.name) in
  let entries = Amcast.Catalogue.all in
  Arg.(
    value
    & opt (enum (List.combine (names entries) entries)) (List.hd entries)
    & info [ "p"; "protocol" ] ~docv:"PROTO"
        ~doc:
          ("Protocol to run, from the catalogue: "
          ^ String.concat ", " (names entries)
          ^ ". Broadcast-only protocols cast to every group, a protocol \
             that never quiesces runs under a horizon, and a genuine one \
             has its genuineness checked."))

let groups_t =
  Arg.(value & opt int 3 & info [ "g"; "groups" ] ~doc:"Number of groups.")

let per_group_t =
  Arg.(
    value & opt int 2
    & info [ "d"; "per-group" ] ~doc:"Processes per group.")

let messages_t =
  Arg.(value & opt int 5 & info [ "n"; "messages" ] ~doc:"Messages to cast.")

let seed_t = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed.")

let gap_t =
  Arg.(
    value & opt int 20
    & info [ "gap-ms" ] ~doc:"Cast interval (or Poisson mean) in ms.")

let poisson_t =
  Arg.(value & flag & info [ "poisson" ] ~doc:"Poisson arrivals.")

let kmax_t =
  Arg.(
    value & opt int 3
    & info [ "k" ] ~doc:"Maximum destination groups per multicast.")

let crash_t =
  let parse s =
    match String.split_on_char '@' s with
    | [ pid; at ] -> (
      match (int_of_string_opt pid, int_of_string_opt at) with
      | Some pid, Some at -> Ok (pid, at)
      | _ -> Error (`Msg "expected PID@MS"))
    | _ -> Error (`Msg "expected PID@MS")
  in
  let print ppf (pid, at) = Fmt.pf ppf "%d@%d" pid at in
  Arg.(
    value
    & opt_all (conv (parse, print)) []
    & info [ "crash" ] ~docv:"PID@MS"
        ~doc:"Crash process $(i,PID) at $(i,MS) milliseconds (repeatable).")

let inter_t =
  Arg.(
    value & opt int 50
    & info [ "inter-ms" ] ~doc:"Inter-group latency in ms.")

let intra_t =
  Arg.(
    value & opt int 1 & info [ "intra-ms" ] ~doc:"Intra-group latency in ms.")

let horizon_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "until-ms" ] ~doc:"Stop the simulation at this virtual time.")

let trace_t =
  Arg.(value & flag & info [ "print-trace" ] ~doc:"Dump the event trace.")

let timeline_t =
  Arg.(
    value & flag
    & info [ "print-timeline" ]
        ~doc:"Render the trace as a per-process timeline.")

let heartbeat_t =
  Arg.(
    value & flag
    & info [ "fd-heartbeat" ]
        ~doc:
          "Drive A1/A2 consensus with the message-based heartbeat failure \
           detector instead of the oracle (never quiescent: a horizon is \
           applied).")

let fast_lanes_t =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) true
    & info [ "fast-lanes" ] ~docv:"on|off"
        ~doc:
          "Steady-state message-path fast lanes (Multi-Paxos lease, \
           coordinator-only decide, relay-bounded uniform R-MCast, \
           broadcast network events, state GC). $(b,off) runs the \
           reference message pattern.")

let batch_t =
  Arg.(
    value & opt int 1
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Throughput lane: pack up to $(i,N) casts sharing a destination \
           set into one R-MCast (flushed at size $(i,N) or after \
           $(b,--batch-delay)); timestamp fan-outs of one consensus \
           instance merge likewise. $(b,1) (default) disables batching \
           and keeps the wire pattern byte-identical to the unbatched \
           lane. Delivery is per-cast either way.")

let batch_delay_t =
  Arg.(
    value & opt int 2
    & info [ "batch-delay" ] ~docv:"MS"
        ~doc:
          "Maximum time a buffered cast waits before its batch is flushed \
           (milliseconds; only meaningful with $(b,--batch) > 1).")

let pipeline_t =
  Arg.(
    value & opt int 1
    & info [ "pipeline" ] ~docv:"W"
        ~doc:
          "Throughput lane: keep up to $(i,W) consensus instances in \
           flight per group (decisions still apply in instance order). \
           $(b,1) (default) proposes sequentially, one instance at a \
           time.")

let conflict_t =
  Arg.(
    value
    & opt (enum [ ("total", `Total); ("key", `Key); ("none", `None) ]) `Total
    & info [ "conflict" ] ~docv:"total|key|none"
        ~doc:
          "Conflict relation for the $(b,generic) protocol (ignored by \
           total-order protocols, but it also selects the ordering check): \
           $(b,total) = every pair conflicts (classic total order), \
           $(b,key) = per-key conflicts over the workload's \
           $(b,k=<key>;...) payloads, with the keyed/commuting mix drawn \
           from $(b,--conflict-rate), $(b,none) = nothing conflicts \
           (ordering-free reliable multicast).")

let conflict_rate_t =
  Arg.(
    value & opt float 0.5
    & info [ "conflict-rate" ] ~docv:"R"
        ~doc:
          "With $(b,--conflict key): probability in [0, 1] that a cast is \
           a keyed (conflicting) command rather than a commuting one.")

let topology_t =
  Arg.(
    value
    & opt
        (some
           (enum
              [
                ("clique", Overlay.Clique);
                ("hub", Overlay.Hub);
                ("ring", Overlay.Ring);
                ("tree", Overlay.Tree);
              ]))
        None
    & info [ "topology" ] ~docv:"clique|hub|ring|tree"
        ~doc:
          "Overlay geometry over the groups. The latency between two \
           groups becomes their routed-path delay through the overlay, \
           and $(b,flexcast) forwards messages hop by hop along it. \
           Default (and $(b,clique)): the classic full-mesh WAN model.")

let cmd =
  let doc = "simulate atomic broadcast/multicast protocols on a WAN" in
  let info = Cmd.info "amcast_sim" ~doc in
  Cmd.v info
    Term.(
      const run_cli $ proto_t $ groups_t $ per_group_t $ messages_t $ seed_t
      $ gap_t $ poisson_t $ kmax_t $ crash_t $ inter_t $ intra_t $ horizon_t
      $ trace_t $ timeline_t $ heartbeat_t $ fast_lanes_t
      $ batch_t $ batch_delay_t $ pipeline_t $ conflict_t $ conflict_rate_t
      $ topology_t)

let () = exit (Cmd.eval' cmd)
