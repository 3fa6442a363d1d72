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

let run_cli (proto : Amcast.Catalogue.entry) groups per_group messages seed
    gap_ms poisson kmax crashes inter_ms intra_ms horizon_ms print_trace
    print_timeline heartbeat_fd batch batch_delay_ms pipeline conflict
    conflict_rate topology_kind =
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
      Amcast.Protocol.Config.batch_max = batch;
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
  let violations = Harness.Checker.owed proto config r in
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

(* ----- flags ----- *)

let () =
  let entries = Amcast.Catalogue.all in
  let names = List.map (fun (e : Amcast.Catalogue.entry) -> e.name) entries in
  let proto = ref (List.hd entries) in
  let groups = ref 3 and per_group = ref 2 and messages = ref 5 in
  let seed = ref 0 and gap_ms = ref 20 and poisson = ref false in
  let kmax = ref 3 and crashes = ref [] in
  let inter_ms = ref 50 and intra_ms = ref 1 and horizon_ms = ref None in
  let print_trace = ref false and print_timeline = ref false in
  let heartbeat_fd = ref false in
  let batch = ref 1 and batch_delay_ms = ref 2 and pipeline = ref 1 in
  let conflict = ref `Total and conflict_rate = ref 0.5 in
  let topology_kind = ref None in
  let crash v =
    match String.split_on_char '@' v with
    | [ pid; at ] -> (
      match (int_of_string_opt pid, int_of_string_opt at) with
      | Some pid, Some at -> crashes := (pid, at) :: !crashes
      | _ -> raise (Arg.Bad "--crash expects PID@MS"))
    | _ -> raise (Arg.Bad "--crash expects PID@MS")
  in
  let with_short short long spec doc =
    [ (short, spec, " same as " ^ long); (long, spec, doc) ]
  in
  let specs =
    List.concat
      [
        with_short "-p" "--protocol"
          (Arg.Symbol
             ( names,
               fun n ->
                 proto :=
                   List.find
                     (fun (e : Amcast.Catalogue.entry) -> e.name = n)
                     entries ))
          " catalogue protocol to run (default a1); its traits pick the \
           run shape and the checks";
        with_short "-g" "--groups" (Arg.Set_int groups) "N groups (default 3)";
        with_short "-d" "--per-group" (Arg.Set_int per_group)
          "N processes per group (default 2)";
        with_short "-n" "--messages" (Arg.Set_int messages)
          "N messages to cast (default 5)";
        [
          ("--seed", Arg.Set_int seed, "N random seed (default 0)");
          ( "--gap-ms",
            Arg.Set_int gap_ms,
            "MS cast interval, or Poisson mean (default 20)" );
          ("--poisson", Arg.Set poisson, " Poisson arrivals");
          ( "-k",
            Arg.Set_int kmax,
            "K maximum destination groups per multicast (default 3)" );
          ( "--crash",
            Arg.String crash,
            "PID@MS crash process PID at MS milliseconds (repeatable)" );
          ( "--inter-ms",
            Arg.Set_int inter_ms,
            "MS inter-group latency (default 50)" );
          ( "--intra-ms",
            Arg.Set_int intra_ms,
            "MS intra-group latency (default 1)" );
          ( "--until-ms",
            Arg.Int (fun h -> horizon_ms := Some h),
            "MS stop the simulation at this virtual time" );
          ("--print-trace", Arg.Set print_trace, " dump the event trace");
          ( "--print-timeline",
            Arg.Set print_timeline,
            " render the trace as a per-process timeline" );
          ( "--fd-heartbeat",
            Arg.Set heartbeat_fd,
            " drive A1/A2 consensus with the heartbeat failure detector \
             instead of the oracle (never quiescent: a horizon is applied)" );
          ( "--batch",
            Arg.Set_int batch,
            "N pack up to N casts sharing a destination set into one \
             R-MCast (default 1 = no batching)" );
          ( "--batch-delay",
            Arg.Set_int batch_delay_ms,
            "MS longest wait before a partial batch is flushed (default 2)" );
          ( "--pipeline",
            Arg.Set_int pipeline,
            "W consensus instances in flight per group (default 1)" );
          ( "--conflict",
            Arg.Symbol
              ( [ "total"; "key"; "none" ],
                fun v ->
                  conflict :=
                    match v with "key" -> `Key | "none" -> `None | _ -> `Total
              ),
            " generic protocol's conflict relation, also the ordering check \
             (default total): key = per-key conflicts over k=<key>;... \
             payloads, none = nothing conflicts" );
          ( "--conflict-rate",
            Arg.Set_float conflict_rate,
            "R with --conflict key, probability in [0, 1] that a cast is \
             keyed (default 0.5)" );
          ( "--topology",
            Arg.Symbol
              ( [ "clique"; "hub"; "ring"; "tree" ],
                fun v -> topology_kind := Overlay.kind_of_name v ),
            " overlay geometry over the groups (default clique): routed-path \
             latencies, and flexcast forwards along it" );
        ];
      ]
  in
  Arg.parse (Arg.align specs)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "usage: amcast_sim [options]\n\
     simulate atomic broadcast/multicast protocols on a WAN";
  exit
    (run_cli !proto !groups !per_group !messages !seed !gap_ms !poisson !kmax
       (List.rev !crashes) !inter_ms !intra_ms !horizon_ms !print_trace
       !print_timeline !heartbeat_fd !batch !batch_delay_ms !pipeline
       !conflict !conflict_rate !topology_kind)
