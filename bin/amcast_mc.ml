(* amcast_mc — exhaustive schedule exploration over the DES.

   Where amcast_soak samples random schedules, amcast_mc enumerates them:
   it runs the DPOR-style explorer (lib/mc) over every delivery/crash
   interleaving of a small deployment, checks every terminal state against
   the agreement specifications, and reports violations as minimized,
   replayable choice-sequence trace files.

   Usage: amcast_mc [options]                 explore a configuration
          amcast_mc --replay FILE [--expect-violation]
                                              replay a saved trace

   Explore options:
     --protocol NAME        any Amcast.Catalogue name (default a1);
                            genuineness is checked iff the entry is
                            genuine
     --sizes CSV            group sizes (default 2,2)
     --casts N              number of casts, 1ms apart (default 2)
     --dest CSV             destination gids (default: all groups)
     --origins CSV          cast origins, used round-robin (default 0)
     --config NAME          config preset: default, fritzke or
                            generic-key (default "default")
     --seed N               deployment seed (default 0)
     --intra-us N           intra-group latency, us (default 1000)
     --inter-us N           inter-group latency, us (default 50000)
     --crash AT_US:PID      clean crash-stop (repeatable; prefer AT_US 0 —
                            the crash is explored as a scheduler choice)
     --mutation SPEC        seeded bug, e.g. "drop-deliver 1 0"
     --spurious N           spurious-timer budget per path (default 0)
     --reorder N            delay bound: non-default choices per path
                            (default unlimited)
     --no-por               disable sleep-set partial-order reduction
     --max-interleavings N  terminal-state budget (default 200000)
     --max-total-steps N    executed-event budget (default 50000000)
     --no-minimize          report the raw (unminimized) counterexample
     --trace-out FILE       write the counterexample trace file

   Exit codes: explore — 0 clean, 1 violation found, 2 usage error.
   Replay — 0 when the verdict matches the expectation (clean without
   --expect-violation, violating with it), 1 otherwise. *)

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("amcast_mc: " ^ m);
      exit 2)
    fmt

let ints_csv flag v =
  String.split_on_char ',' v
  |> List.map (fun s ->
         match int_of_string_opt (String.trim s) with
         | Some i -> i
         | None -> die "%s: bad integer list %S" flag v)

let int_arg flag v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> die "%s: bad integer %S" flag v

let () =
  let replay_file = ref None in
  let expect_violation = ref false in
  let protocol = ref "a1" in
  let sizes = ref [ 2; 2 ] in
  let casts_n = ref 2 in
  let dest = ref None in
  let origins = ref [ 0 ] in
  let config_name = ref "default" in
  let seed = ref 0 in
  let intra_us = ref 1_000 in
  let inter_us = ref 50_000 in
  let crashes = ref [] in
  let mutation = ref None in
  let spurious = ref 0 in
  let reorder = ref max_int in
  let por = ref true in
  let max_interleavings = ref 200_000 in
  let max_total_steps = ref 50_000_000 in
  let minimize = ref true in
  let trace_out = ref None in
  let set r f = Arg.String (fun v -> r := f v) in
  let int_flag flag r = set r (int_arg flag) in
  Arg.parse
    (Arg.align
    [
      ("--replay", set replay_file Option.some, "FILE replay a saved trace");
      ( "--expect-violation",
        Arg.Set expect_violation,
        " the replayed trace must violate" );
      ("--protocol", Arg.Set_string protocol, "NAME catalogue protocol (default a1)");
      ("--sizes", set sizes (ints_csv "--sizes"), "CSV group sizes (default 2,2)");
      ("--casts", int_flag "--casts" casts_n, "N casts, 1ms apart (default 2)");
      ( "--dest",
        set dest (fun v -> Some (ints_csv "--dest" v)),
        "CSV destination gids (default all groups)" );
      ( "--origins",
        set origins (ints_csv "--origins"),
        "CSV cast origins, round-robin (default 0)" );
      ("--config", Arg.Set_string config_name, "NAME config preset (default default)");
      ("--seed", int_flag "--seed" seed, "N deployment seed (default 0)");
      ("--intra-us", int_flag "--intra-us" intra_us, "N intra-group latency (default 1000)");
      ("--inter-us", int_flag "--inter-us" inter_us, "N inter-group latency (default 50000)");
      ( "--crash",
        Arg.String
          (fun v ->
            match String.split_on_char ':' v with
            | [ at; pid ] ->
              crashes := (int_arg "--crash" at, int_arg "--crash" pid) :: !crashes
            | _ -> die "--crash expects AT_US:PID, got %S" v),
        "AT_US:PID clean crash-stop (repeatable)" );
      ( "--mutation",
        Arg.String
          (fun v ->
            match Mc.Mutant.spec_of_string v with
            | Ok spec -> mutation := Some spec
            | Error e -> die "%s" e),
        "SPEC seeded bug, e.g. \"drop-deliver 1 0\"" );
      ("--spurious", int_flag "--spurious" spurious, "N spurious-timer budget per path (default 0)");
      ("--reorder", int_flag "--reorder" reorder, "N delay bound (default unlimited)");
      ("--no-por", Arg.Clear por, " disable sleep-set partial-order reduction");
      ( "--max-interleavings",
        int_flag "--max-interleavings" max_interleavings,
        "N terminal-state budget (default 200000)" );
      ( "--max-total-steps",
        int_flag "--max-total-steps" max_total_steps,
        "N executed-event budget (default 50000000)" );
      ("--no-minimize", Arg.Clear minimize, " report the raw counterexample");
      ("--trace-out", set trace_out Option.some, "FILE write the counterexample trace");
    ])
    (die "unknown flag %s")
    "usage: amcast_mc [options]\n\
    \       amcast_mc --replay FILE [--expect-violation]";
  match !replay_file with
  | Some file -> (
    match Mc.Trace_file.load file with
    | Error e -> die "%s: %s" file e
    | Ok t -> (
      match Mc.Trace_file.replay t with
      | Error e -> die "%s: %s" file e
      | Ok (r, violations) ->
        Fmt.pr "%a@." Harness.Run_result.pp_summary r;
        if violations = [] then Fmt.pr "replay: no violations@."
        else begin
          Fmt.pr "replay: %d violation(s):@." (List.length violations);
          List.iter (fun v -> Fmt.pr "  %s@." v) violations
        end;
        if violations <> [] = !expect_violation then exit 0
        else begin
          Fmt.pr "replay: verdict does not match expectation (%s)@."
            (if !expect_violation then "--expect-violation" else "clean");
          exit 1
        end))
  | None -> (
    if !origins = [] then die "--origins must not be empty";
    let dest_gids =
      Option.value !dest ~default:(List.init (List.length !sizes) Fun.id)
    in
    let tf =
      Mc.Trace_file.make ~seed:!seed ~intra_us:!intra_us ~inter_us:!inter_us
        ~config:!config_name ~spurious_timers:!spurious
        ~reorder_bound:!reorder
        ~casts:
          (List.init !casts_n (fun k ->
               ( (k + 1) * 1_000,
                 List.nth !origins (k mod List.length !origins),
                 dest_gids,
                 "m" ^ string_of_int k )))
        ~faults:(List.rev !crashes) ?mutation:!mutation ~protocol:!protocol
        ~sizes:!sizes ()
    in
    let cell =
      match Mc.Trace_file.cell tf with Ok c -> c | Error e -> die "%s" e
    in
    Fmt.pr "exploring %s sizes=%s casts=%d (por=%b)@." cell.name
      (String.concat "," (List.map string_of_int !sizes))
      !casts_n !por;
    let t0 = Unix.gettimeofday () in
    let o =
      cell.explore
        {
          Mc.Explorer.default_opts with
          por = !por;
          max_interleavings = !max_interleavings;
          max_total_steps = !max_total_steps;
        }
    in
    let dt = Unix.gettimeofday () -. t0 in
    let s = o.stats in
    Fmt.pr
      "interleavings=%d events=%d replays=%d peak_depth=%d sleep_prunes=%d \
       outcomes=%d exhaustive=%b (%.2fs, %.0f events/s)@."
      s.interleavings s.events s.replays s.peak_depth s.sleep_prunes
      (List.length o.outcome_digests)
      s.exhaustive dt
      (float_of_int s.events /. Float.max dt 1e-9);
    match o.violation with
    | None ->
      Fmt.pr "no violations.@.";
      exit 0
    | Some v ->
      let choices, messages =
        if !minimize then cell.minimize v.choices else (v.choices, v.messages)
      in
      Fmt.pr "VIOLATION after %d interleavings; %sschedule (%d choices):@."
        s.interleavings
        (if !minimize then "minimized " else "")
        (List.length choices);
      Fmt.pr "  choices %s@."
        (String.concat "," (List.map string_of_int choices));
      List.iter (fun m -> Fmt.pr "  %s@." m) messages;
      (match !trace_out with
      | Some file ->
        Mc.Trace_file.save file
          { tf with choices; note = "found by amcast_mc explore" };
        Fmt.pr "trace written to %s@." file
      | None -> ());
      exit 1)
