(* amcast_kv — the replicated KV service over real TCP, and its
   closed-loop load bench.

     amcast_kv bench [options]   boot a cluster on localhost, drive the
                                 multi-client load driver, crash and
                                 restart one replica mid-load (unless
                                 --no-crash), audit consistency and the
                                 protocol checkers, write BENCH_kv.json.
                                 Exits non-zero on any violation, on a
                                 failed learner catch-up or on zero
                                 committed ops — the CI smoke gate.
     amcast_kv serve [options]   boot the cluster and serve until EOF on
                                 stdin (^D) or SIGINT.
     amcast_kv client ADDR CMD   one request against a running cluster,
                                 e.g.  amcast_kv client 127.0.0.1:7400
                                 "SET fruit apple"  (follows one
                                 redirect).

   Options (bench/serve):
     --groups N       groups in the topology            (default 2)
     --per-group N    replicas per group                (default 3)
     --base-port P    first listen port; node pid p listens on P+p
                      (default 7400)
     --seed N         workload + delay-injection seed   (default 0)
     --inject wan     sample per-link delays from Net.Latency.wan_default
                      (default: no injected delay)
   Options (bench only):
     --clients N      closed-loop client threads        (default 8)
     --duration S     seconds of measured load          (default 3.0)
     --keyspace N     distinct keys                     (default 64)
     --value-bytes N  SET payload size                  (default 32)
     --no-crash       skip the mid-load crash/restart of one replica
     --out FILE       JSON output path       (default BENCH_kv.json) *)

module Svc = Transport.Kv_service.Make (Amcast.A1)

let usage () =
  prerr_endline
    "usage: amcast_kv {bench|serve} [--groups N] [--per-group N] \
     [--base-port P]\n\
    \                 [--seed N] [--inject wan] [--clients N] [--duration \
     S]\n\
    \                 [--keyspace N] [--value-bytes N] [--no-crash] [--out \
     FILE]\n\
    \       amcast_kv client HOST:PORT \"SET key value\"";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let int_arg flag value ~min =
  match int_of_string_opt value with
  | Some v when v >= min -> v
  | _ -> fail "amcast_kv: %s must be an integer >= %d" flag min

let float_arg flag value =
  match float_of_string_opt value with
  | Some v when v > 0.0 -> v
  | _ -> fail "amcast_kv: %s must be a positive number" flag

(* ------------------------------------------------------------------ *)

type bench_outcome = {
  params : Transport.Load.params;
  load : Transport.Load.result;
  crash_restart : bool;
  victim : int option;
  learner_synced : bool;
  committed : int array; (* commands applied per replica *)
  consistency : string list;
  checker : string list;
}

let bench_fields ~groups ~per_group ~inject ~base_port (o : bench_outcome) =
  let open Harness.Bench_json in
  let p = o.params and l = o.load in
  [
    ("protocol", String "a1");
    ("transport", String "tcp-localhost");
    ("topology", String (Printf.sprintf "%dx%d" groups per_group));
    ("base_port", Int base_port);
    ("inject", String inject);
    ("seed", Int p.Transport.Load.seed);
    ("clients", Int p.Transport.Load.clients);
    ("duration_s", float 3 p.Transport.Load.duration);
    ("keyspace", Int p.Transport.Load.keyspace);
    ("value_bytes", Int p.Transport.Load.value_bytes);
    ("get_ratio", float 3 p.Transport.Load.get_ratio);
    ("del_ratio", float 3 p.Transport.Load.del_ratio);
    ("ops", Int l.Transport.Load.ops);
    ("errors", Int l.Transport.Load.errors);
    ("redirects", Int l.Transport.Load.redirects);
    ("wall_s", float 6 l.Transport.Load.wall_s);
    ("throughput_ops_s", float 1 l.Transport.Load.throughput);
    ("mean_ms", opt (float 3) l.Transport.Load.mean_ms);
    ("p50_ms", opt (float 3) l.Transport.Load.p50_ms);
    ("p99_ms", opt (float 3) l.Transport.Load.p99_ms);
    ("crash_restart", Bool o.crash_restart);
    ("victim", opt (fun v -> Int v) o.victim);
    ("learner_synced", Bool o.learner_synced);
    ("committed_per_replica", ints (Array.to_list o.committed));
    ("consistency_violations", strings o.consistency);
    ("checker_violations", strings o.checker);
  ]

(* ------------------------------------------------------------------ *)

type opts = {
  mutable groups : int;
  mutable per_group : int;
  mutable base_port : int;
  mutable seed : int;
  mutable inject : string;
  mutable clients : int;
  mutable duration : float;
  mutable keyspace : int;
  mutable value_bytes : int;
  mutable crash : bool;
  mutable out : string;
}

let parse_opts args =
  let o =
    {
      groups = 2;
      per_group = 3;
      base_port = 7400;
      seed = 0;
      inject = "none";
      clients = 8;
      duration = 3.0;
      keyspace = 64;
      value_bytes = 32;
      crash = true;
      out = "BENCH_kv.json";
    }
  in
  let rec go = function
    | [] -> o
    | "--groups" :: v :: rest ->
      o.groups <- int_arg "--groups" v ~min:1;
      go rest
    | "--per-group" :: v :: rest ->
      o.per_group <- int_arg "--per-group" v ~min:1;
      go rest
    | "--base-port" :: v :: rest ->
      o.base_port <- int_arg "--base-port" v ~min:1024;
      go rest
    | "--seed" :: v :: rest ->
      o.seed <- int_arg "--seed" v ~min:0;
      go rest
    | "--inject" :: v :: rest ->
      (match v with
      | "wan" | "none" -> o.inject <- v
      | _ -> fail "amcast_kv: --inject must be \"wan\" or \"none\"");
      go rest
    | "--clients" :: v :: rest ->
      o.clients <- int_arg "--clients" v ~min:1;
      go rest
    | "--duration" :: v :: rest ->
      o.duration <- float_arg "--duration" v;
      go rest
    | "--keyspace" :: v :: rest ->
      o.keyspace <- int_arg "--keyspace" v ~min:1;
      go rest
    | "--value-bytes" :: v :: rest ->
      o.value_bytes <- int_arg "--value-bytes" v ~min:1;
      go rest
    | "--no-crash" :: rest ->
      o.crash <- false;
      go rest
    | "--out" :: v :: rest ->
      o.out <- v;
      go rest
    | (("--groups" | "--per-group" | "--base-port" | "--seed" | "--inject"
       | "--clients" | "--duration" | "--keyspace" | "--value-bytes"
       | "--out") as flag)
      :: [] -> fail "amcast_kv: %s needs an argument" flag
    | arg :: _ -> fail "amcast_kv: unknown argument %S" arg
  in
  go args

let boot o =
  let topology = Net.Topology.symmetric ~groups:o.groups ~per_group:o.per_group in
  let inject =
    match o.inject with "wan" -> Some Net.Latency.wan_default | _ -> None
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "amcast-kv-%d" (Unix.getpid ()))
  in
  let t =
    Svc.create ?inject ~seed:o.seed ~base_port:o.base_port ~dir topology
  in
  (topology, t)

(* ------------------------------------------------------------------ *)

let cmd_bench args =
  let o = parse_opts args in
  if o.crash && o.per_group < 3 then
    fail
      "amcast_kv: the crash/restart phase needs --per-group >= 3 (a \
       majority must survive); use --no-crash for smaller groups";
  let topology, t = boot o in
  let params =
    {
      Transport.Load.default with
      Transport.Load.clients = o.clients;
      duration = o.duration;
      keyspace = o.keyspace;
      value_bytes = o.value_bytes;
      seed = o.seed;
    }
  in
  let route key = Svc.addr_of t (Svc.contact_for t key) in
  (* fault injection rides on its own thread: crash the last replica of
     group 0 at 40% of the load window, restart it at 70% *)
  let victim =
    if o.crash then (
      let members = Net.Topology.members topology 0 in
      Some (List.nth members (List.length members - 1)))
    else None
  in
  let injector =
    Option.map
      (fun v ->
        Thread.create
          (fun v ->
            Thread.delay (o.duration *. 0.4);
            Printf.printf "  [fault] crashing replica p%d\n%!" v;
            Svc.crash t v;
            Thread.delay (o.duration *. 0.3);
            Printf.printf "  [fault] restarting replica p%d as learner\n%!" v;
            Svc.restart t v)
          v)
      victim
  in
  Printf.printf
    "amcast_kv bench: %dx%d cluster on 127.0.0.1:%d+, %d clients, %.1fs \
     (inject=%s, crash=%b)\n\
     %!"
    o.groups o.per_group o.base_port o.clients o.duration o.inject o.crash;
  let load = Transport.Load.run ~route params in
  Option.iter Thread.join injector;
  (* let deliveries settle, then wait for the learner to catch up *)
  let learner_synced =
    match victim with
    | None -> true
    | Some v -> Svc.await ~timeout:15.0 (fun () -> Svc.synced t v)
  in
  let settled () =
    List.for_all
      (fun g ->
        match Net.Topology.members topology g with
        | a :: rest ->
          List.for_all (fun b -> Svc.applied t b = Svc.applied t a) rest
        | [] -> true)
      (Net.Topology.all_groups topology)
  in
  ignore (Svc.await ~timeout:10.0 settled);
  let committed =
    Array.init
      (Net.Topology.n_processes topology)
      (fun p -> Svc.applied t p)
  in
  let consistency = Svc.check_consistency t in
  let checker = Harness.Checker.check_all (Svc.run_result t) in
  Svc.stop t;
  let outcome =
    {
      params;
      load;
      crash_restart = o.crash;
      victim;
      learner_synced;
      committed;
      consistency;
      checker;
    }
  in
  let ms x = Harness.Bench_json.(to_string (opt (float 3) x)) in
  Printf.printf
    "  ops %d (errors %d, redirects %d)  throughput %.1f ops/s  p50 %s ms  \
     p99 %s ms\n\
    \  committed per replica: [%s]\n\
    \  learner synced: %b   consistency violations: %d   checker \
     violations: %d\n\
     %!"
    load.Transport.Load.ops load.Transport.Load.errors
    load.Transport.Load.redirects load.Transport.Load.throughput
    (ms load.Transport.Load.p50_ms)
    (ms load.Transport.Load.p99_ms)
    (String.concat ", "
       (List.map string_of_int (Array.to_list committed)))
    learner_synced (List.length consistency) (List.length checker);
  List.iter (fun v -> Printf.printf "  consistency: %s\n" v) consistency;
  List.iter (fun v -> Printf.printf "  checker: %s\n" v) checker;
  Harness.Bench_json.write ~schema:"amcast-bench-kv/v1" ~out:o.out
    ~gates:
      [
        ("no_consistency_violations", consistency = []);
        ("no_checker_violations", checker = []);
        ("learner_synced", learner_synced);
        ("ops_completed", load.Transport.Load.ops > 0);
      ]
    (bench_fields ~groups:o.groups ~per_group:o.per_group ~inject:o.inject
       ~base_port:o.base_port outcome)

let cmd_serve args =
  let o = parse_opts args in
  let topology, t = boot o in
  Printf.printf "amcast_kv: serving %dx%d cluster\n" o.groups o.per_group;
  List.iter
    (fun pid ->
      let host, port = Svc.addr_of t pid in
      Printf.printf "  p%d (group %d): %s:%d\n" pid
        (Net.Topology.group_of topology pid)
        host port)
    (Net.Topology.all_pids topology);
  Printf.printf "SIGINT/SIGTERM stops the cluster (so does ^D on a tty).\n%!";
  let stop _ =
    Svc.stop t;
    exit 0
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  let interactive = Unix.isatty Unix.stdin in
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file -> ());
  if interactive then Svc.stop t
  else
    (* stdin closed at launch (daemon-style): serve until a signal *)
    let rec forever () =
      Thread.delay 3600.0;
      forever ()
    in
    forever ()

let cmd_client = function
  | [ addr; line ] -> (
    let host, port =
      match String.split_on_char ':' addr with
      | [ h; p ] -> (h, int_arg "PORT" p ~min:1)
      | _ -> fail "amcast_kv: ADDR must be HOST:PORT"
    in
    let request addr =
      let c = Transport.Tcp.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Transport.Tcp.Client.close c)
        (fun () -> Transport.Tcp.Client.request c line)
    in
    let follow_redirect reply =
      match String.split_on_char ' ' reply with
      | [ "REDIRECT"; _pid; host; port ] -> (
        match int_of_string_opt port with
        | Some p -> Some (host, p)
        | None -> None)
      | _ -> None
    in
    let ok, reply =
      match request (host, port) with
      | true, r -> (true, r)
      | false, r -> (
        match follow_redirect r with
        | Some addr' -> request addr'
        | None -> (false, r))
    in
    Printf.printf "%s %s\n" (if ok then "OK" else "MISS") reply;
    exit (if ok then 0 else 1))
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "bench" :: rest -> cmd_bench rest
  | _ :: "serve" :: rest -> cmd_serve rest
  | _ :: "client" :: rest -> cmd_client rest
  | _ -> usage ()
