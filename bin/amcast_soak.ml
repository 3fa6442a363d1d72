(* amcast_soak — randomised soak campaigns over the protocol catalogue.

   Runs N random scenarios (topology, workload, crashes, jitter) per
   target, checks every run against the agreement specifications, and
   exits non-zero on any violation. The targets are
   Amcast.Catalogue.soak_targets: the quiescent, uniform entries, in
   catalogue order. The CI-style entry point of the library's chaos
   testing.

   With DOMAINS > 1 the scenarios of each campaign are fanned out across
   that many OCaml domains (Harness.Pool); the summaries — and the exit
   code — are bit-identical to a sequential run for any domain count.

   Usage: amcast_soak [--nemesis on|off] [--batch N] [--batch-delay MS]
                      [--pipeline W] [--conflict total|key|none]
                      [--conflict-rate R]
                      [--topology clique|hub|ring|tree]
                      [RUNS] [SEED] [DOMAINS]
   DOMAINS defaults to 1 (sequential); pass 0 for the recommended domain
   count of this machine. --nemesis defaults to "off"; "on" replays a
   seeded fault plan (partition/heal windows, latency spikes, FD storms,
   crash schedule) against every run, with liveness asserted only after
   each plan's final heal. --batch (default 1 = off) soaks the
   throughput lane's cast batching with the given batch size,
   --batch-delay (ms, default 2) its flush timeout, and --pipeline
   (default 1 = sequential) its in-flight consensus-instance window; the
   summaries then report the batching/pipelining counters. --conflict
   (default "total") selects the conflict relation of the generic
   (conflict-aware) target — "key" draws keyed/commuting payload mixes
   with keyed probability --conflict-rate (default 0.5) and checks the
   relaxed conflict order, "none" makes every cast commute; the
   total-order targets always keep the full prefix-order check.
   --topology (default "clique") runs every campaign over that overlay
   geometry: latencies become routed-path delays, nemesis partitions
   follow the overlay's cut edges, flexcast routes along it, and the
   genuineness checks become overlay-aware. *)

let () =
  let nemesis = ref false in
  let batch = ref 1 in
  let batch_delay_ms = ref 2 in
  let pipeline = ref 1 in
  let conflict_mode = ref `Total in
  let conflict_rate = ref 0.5 in
  let overlay_kind = ref None in
  let positional = ref [] in
  let int_arg flag value ~min =
    match int_of_string_opt value with
    | Some v when v >= min -> v
    | _ ->
      Printf.eprintf "amcast_soak: %s must be an integer >= %d\n" flag min;
      exit 2
  in
  let int_flag flag r ~min =
    Arg.String (fun v -> r := int_arg flag v ~min)
  in
  let on_off set = Arg.Symbol ([ "on"; "off" ], fun v -> set (v = "on")) in
  Arg.parse
    (Arg.align
       [
         ("--nemesis", on_off (( := ) nemesis), " seeded fault plans (default off)");
         ("--batch", int_flag "--batch" batch ~min:1, "N cast batch size (default 1 = off)");
         ( "--batch-delay",
           int_flag "--batch-delay" batch_delay_ms ~min:0,
           "MS batch flush timeout (default 2)" );
         ( "--pipeline",
           int_flag "--pipeline" pipeline ~min:1,
           "W in-flight consensus instances (default 1)" );
         ( "--conflict",
           Arg.Symbol
             ( [ "total"; "key"; "none" ],
               fun v ->
                 conflict_mode :=
                   match v with "key" -> `Key | "none" -> `None | _ -> `Total ),
           " the generic target's conflict relation (default total)" );
         ( "--conflict-rate",
           Arg.Float
             (fun v ->
               if not (v >= 0.0 && v <= 1.0) then
                 raise (Arg.Bad "--conflict-rate must be a float in [0, 1]");
               conflict_rate := v),
           "R keyed probability under --conflict key (default 0.5)" );
         ( "--topology",
           Arg.String
             (fun v ->
               match Net.Overlay.kind_of_name v with
               | Some Net.Overlay.Clique -> overlay_kind := None
               | Some k -> overlay_kind := Some k
               | None ->
                 raise
                   (Arg.Bad
                      "--topology must be \"clique\", \"hub\", \"ring\" or \
                       \"tree\"")),
           "KIND overlay geometry: clique (default), hub, ring or tree" );
       ])
    (fun a -> positional := a :: !positional)
    "usage: amcast_soak [options] [RUNS] [SEED] [DOMAINS]";
  let positional = Array.of_list (List.rev !positional) in
  let config =
    {
      Amcast.Protocol.Config.default with
      Amcast.Protocol.Config.batch_max = !batch;
      batch_delay = Des.Sim_time.of_ms !batch_delay_ms;
      pipeline = !pipeline;
    }
  in
  let with_nemesis = !nemesis in
  let runs =
    if Array.length positional > 0 then int_arg "RUNS" positional.(0) ~min:1
    else 50
  in
  let seed =
    if Array.length positional > 1 then int_arg "SEED" positional.(1) ~min:0
    else 0
  in
  let domains =
    if Array.length positional > 2 then
      match int_arg "DOMAINS" positional.(2) ~min:0 with
      | 0 -> Harness.Pool.recommended_domains ()
      | d -> d
    else 1
  in
  let overlay_kind = !overlay_kind in
  (* The conflict relation only reaches the generic target's config — the
     total-order targets must keep their full prefix-order check. The
     keyed/commuting workload mix (under --conflict key) applies to every
     target so the campaigns stay comparable: total-order protocols treat
     the payloads as opaque. *)
  let conflict_rel =
    match !conflict_mode with
    | `Total -> Amcast.Conflict.total
    | `Key -> Amcast.Conflict.payload_key
    | `None -> Amcast.Conflict.never
  in
  let workload_conflict =
    match !conflict_mode with
    | `Key -> Some (Harness.Workload.conflict_spec !conflict_rate)
    | `Total | `None -> None
  in
  let failed = ref false in
  (* Every soak run executes without a horizon and must drain.
     Fault-tolerant protocols are soaked with crashes; the failure-free
     baselines (Figure 1's model for them) without. Causal delivery order
     is asserted for none — not even A2: its derived guarantee only covers
     causality that crosses rounds (the chain-style runs of
     [prop_a2_causal_chain]); under a Poisson workload an
     R-Deliver-then-cast chain can fit inside one round, whose id-sorted
     bundle delivery legitimately reorders the pair. The causal checker is
     still soak-exercised differentially (fast vs reference) by the
     checker test suite. *)
  List.iter
    (fun (e : Amcast.Catalogue.entry) ->
      Fmt.pr "@.== %s: %d runs%s%s%s ==@." e.name runs
        (if e.crash_tolerant then " (with crash injection)" else "")
        (if with_nemesis then " (with nemesis plans)" else "")
        (if domains > 1 then Fmt.str " on %d domains" domains else "");
      let config =
        if e.name = "generic" then
          { config with Amcast.Protocol.Config.conflict = conflict_rel }
        else config
      in
      let summary =
        Harness.Campaign.run_parallel e.proto ~config
          ?conflict:workload_conflict ?overlay_kind ~expect_genuine:e.genuine
          ~check_quiescence:true ~broadcast_only:e.broadcast_only
          ~with_crashes:e.crash_tolerant ~with_nemesis ~domains ~seed ~runs ()
      in
      Fmt.pr "%a@." Harness.Campaign.pp_summary summary;
      if summary.failures <> [] then failed := true)
    Amcast.Catalogue.soak_targets;
  if !failed then exit 1 else Fmt.pr "@.soak clean.@."
