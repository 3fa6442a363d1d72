open Des
open Net
open Runtime

let crisp_latency = Harness.Figure1.crisp

let mix h v = ((h * 0x100000001b3) + v + 1) land max_int

let digest (r : Harness.Run_result.t) =
  let h = ref 17 in
  let n = Topology.n_processes r.topology in
  for pid = 0 to n - 1 do
    h := mix !h (-1);
    List.iter
      (fun (m : Amcast.Msg.t) ->
        h := mix !h m.id.Msg_id.origin;
        h := mix !h m.id.Msg_id.seq)
      (Harness.Run_result.sequence_of r pid)
  done;
  List.iter
    (fun pid -> h := mix !h (1000 + pid))
    (List.sort Int.compare r.crashed);
  !h

(* Independence for sleep sets: process-local event kinds at different
   processes commute; crashes and generic events are conservatively
   dependent with everything. *)
let commutes (a : Drive.choice) (b : Drive.choice) =
  let local t =
    match Scheduler.Tag.kind t with
    | `Deliver | `Timer | `Cast -> true
    | `Crash | `Generic -> false
  in
  local a.Drive.tag && local b.Drive.tag
  && Scheduler.Tag.actor a.Drive.tag <> Scheduler.Tag.actor b.Drive.tag

module Make (P : Amcast.Protocol.S) = struct
  module R = Harness.Runner.Make (P)

  type setup = {
    topology : Topology.t;
    workload : Harness.Workload.t;
    seed : int;
    latency : Latency.t;
    config : Amcast.Protocol.Config.t;
    faults : Harness.Runner.fault list;
    spurious_timers : int;
    reorder_bound : int;
  }

  let make_setup ?(seed = 0) ?(latency = crisp_latency)
      ?(config = Amcast.Protocol.Config.default) ?(faults = [])
      ?(spurious_timers = 0) ?(reorder_bound = max_int) ~topology workload =
    {
      topology;
      workload;
      seed;
      latency;
      config;
      faults;
      spurious_timers;
      reorder_bound;
    }

  let fresh s =
    let d =
      R.deploy ~seed:s.seed ~latency:s.latency ~config:s.config
        ~faults:s.faults s.topology
    in
    Network.set_explode_fanout (Engine.network (R.engine d)) true;
    ignore (R.schedule d s.workload);
    let drv =
      Drive.create ~spurious_timers:s.spurious_timers
        ~reorder_bound:s.reorder_bound
        (Engine.scheduler (R.engine d))
    in
    (d, drv)

  let replay ?max_steps s choices =
    let d, drv = fresh s in
    ignore (Drive.run ?max_steps drv choices);
    R.run_deployment d

  type opts = {
    por : bool;
    fingerprints : bool;
    max_interleavings : int;
    max_path_steps : int;
    max_total_steps : int;
    check : (Harness.Run_result.t -> string list) option;
    stop_on_violation : bool;
  }

  (* What a run of [P] owes under the setup's config; a protocol outside
     the catalogue (a test mutant) owes [check_all]'s defaults. *)
  let owed s =
    match Amcast.Catalogue.find P.name with
    | Some e -> Harness.Checker.owed e s.config
    | None -> fun r -> Harness.Checker.check_all r

  let default_opts =
    {
      por = true;
      fingerprints = false;
      max_interleavings = 200_000;
      max_path_steps = 10_000;
      max_total_steps = 50_000_000;
      check = None;
      stop_on_violation = true;
    }

  type violation = { choices : int list; messages : string list }

  type stats = {
    interleavings : int;
    events : int;
    replays : int;
    peak_depth : int;
    sleep_prunes : int;
    fingerprint_prunes : int;
    exhaustive : bool;
  }

  type outcome = {
    stats : stats;
    outcome_digests : int list;
    violation : violation option;
  }

  type ctx = {
    o : opts;
    s : setup;
    check : Harness.Run_result.t -> string list;
    on_terminal : (int list -> Harness.Run_result.t -> unit) option;
    seen : (int, unit) Hashtbl.t;
    outcomes : (int, unit) Hashtbl.t;
    mutable interleavings : int;
    mutable events : int;
    mutable replays : int;
    mutable peak_depth : int;
    mutable sleep_prunes : int;
    mutable fingerprint_prunes : int;
    mutable truncated : bool;
    mutable violation : violation option;
  }

  exception Stop

  let exec ctx drv fp trace i =
    if ctx.events >= ctx.o.max_total_steps then begin
      ctx.truncated <- true;
      raise Stop
    end;
    let c = Drive.step drv i in
    ctx.events <- ctx.events + 1;
    Fingerprint.note_step fp ~tag:c.Drive.tag ~trace;
    c

  (* Backtracking is replay-based: the DES has no state snapshots, so each
     non-first sibling re-deploys and fast-forwards through the prefix.
     Deterministic handle allocation makes the recorded handles valid
     across replays of the same prefix. *)
  let spawn ctx forward_prefix =
    ctx.replays <- ctx.replays + 1;
    let d, drv = fresh ctx.s in
    let fp =
      Fingerprint.create ~n_processes:(Topology.n_processes ctx.s.topology)
    in
    let trace = Engine.trace (R.engine d) in
    List.iter (fun i -> ignore (exec ctx drv fp trace i)) forward_prefix;
    (d, drv, fp)

  let rec dfs ctx d drv fp depth prefix_rev sleep =
    if depth > ctx.peak_depth then ctx.peak_depth <- depth;
    let cs = Drive.choices drv in
    if cs = [] then begin
      ctx.interleavings <- ctx.interleavings + 1;
      let r = R.run_deployment d in
      Hashtbl.replace ctx.outcomes (digest r) ();
      (match ctx.on_terminal with
      | Some f -> f (List.rev prefix_rev) r
      | None -> ());
      let msgs = ctx.check r in
      if msgs <> [] then begin
        if ctx.violation = None then
          ctx.violation <-
            Some { choices = List.rev prefix_rev; messages = msgs };
        if ctx.o.stop_on_violation then raise Stop
      end;
      if ctx.interleavings >= ctx.o.max_interleavings then begin
        ctx.truncated <- true;
        raise Stop
      end
    end
    else if depth >= ctx.o.max_path_steps then ctx.truncated <- true
    else
      let proceed =
        (not ctx.o.fingerprints)
        ||
        let st = Fingerprint.state fp in
        if Hashtbl.mem ctx.seen st then begin
          ctx.fingerprint_prunes <- ctx.fingerprint_prunes + 1;
          false
        end
        else begin
          Hashtbl.add ctx.seen st ();
          true
        end
      in
      if proceed then begin
        let slept c =
          List.exists (fun sc -> sc.Drive.handle = c.Drive.handle) sleep
        in
        let avail =
          List.mapi (fun idx c -> (idx, c)) cs
          |> List.filter (fun (_, c) -> not (slept c))
        in
        if avail = [] then ctx.sleep_prunes <- ctx.sleep_prunes + 1
        else begin
          let explored = ref [] in
          let first = ref true in
          List.iter
            (fun (idx, c) ->
              let d', drv', fp' =
                if !first then begin
                  first := false;
                  (d, drv, fp)
                end
                else spawn ctx (List.rev prefix_rev)
              in
              let trace' = Engine.trace (R.engine d') in
              ignore (exec ctx drv' fp' trace' idx);
              let sleep' =
                if ctx.o.por then
                  List.filter (fun sc -> commutes c sc) (sleep @ !explored)
                else []
              in
              dfs ctx d' drv' fp' (depth + 1) (idx :: prefix_rev) sleep';
              explored := c :: !explored)
            avail
        end
      end

  let explore ?(opts = default_opts) ?on_terminal s =
    let ctx =
      {
        o = opts;
        s;
        check = Option.value opts.check ~default:(owed s);
        on_terminal;
        seen = Hashtbl.create 4096;
        outcomes = Hashtbl.create 256;
        interleavings = 0;
        events = 0;
        replays = 0;
        peak_depth = 0;
        sleep_prunes = 0;
        fingerprint_prunes = 0;
        truncated = false;
        violation = None;
      }
    in
    (try
       ctx.replays <- 1;
       let d, drv = fresh s in
       let fp =
         Fingerprint.create ~n_processes:(Topology.n_processes s.topology)
       in
       dfs ctx d drv fp 0 [] []
     with Stop -> ());
    let exhaustive =
      (not ctx.truncated)
      && (ctx.violation = None || not opts.stop_on_violation)
    in
    {
      stats =
        {
          interleavings = ctx.interleavings;
          events = ctx.events;
          replays = ctx.replays;
          peak_depth = ctx.peak_depth;
          sleep_prunes = ctx.sleep_prunes;
          fingerprint_prunes = ctx.fingerprint_prunes;
          exhaustive;
        };
      outcome_digests =
        Hashtbl.fold (fun k () acc -> k :: acc) ctx.outcomes []
        |> List.sort Int.compare;
      violation = ctx.violation;
    }

  let minimize ?check ?max_steps s choices =
    let check = Option.value check ~default:(owed s) in
    let expand cs =
      let d, drv = fresh s in
      let executed = Drive.run ?max_steps drv cs in
      (executed, R.run_deployment d)
    in
    let full, r0 = expand choices in
    if check r0 = [] then (choices, [])
    else begin
      let cur = ref (Array.of_list full) in
      let len = Array.length !cur in
      for k = 0 to len - 1 do
        if !cur.(k) <> 0 then begin
          let cand = Array.copy !cur in
          cand.(k) <- 0;
          let _, r = expand (Array.to_list cand) in
          if check r <> [] then cur := cand
        end
      done;
      let l = ref (Array.length !cur) in
      while !l > 0 && !cur.(!l - 1) = 0 do
        decr l
      done;
      let final = Array.to_list (Array.sub !cur 0 !l) in
      let _, r = expand final in
      (final, check r)
    end
end
