(* The real backend: TCP transport units, WAL durability, the replicated
   KV service end to end on localhost, the DES-vs-real differential, and
   the prefix-aware consistency oracle. *)

open Net

let unique_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "amcast-kv-test-%d-%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    d

(* polling helper shared by every real-backend test *)
let await ?(timeout = 10.0) cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () > deadline then cond ()
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* WAL: roundtrip, torn tail, recovery                                 *)
(* ------------------------------------------------------------------ *)

let test_wal_roundtrip () =
  let path = Filename.concat (unique_dir ()) "w.wal" in
  let w = Transport.Wal.create path in
  List.iter (Transport.Wal.append w) [ "alpha"; ""; "g\x00mma" ];
  Transport.Wal.close w;
  Alcotest.(check (list string))
    "replayed records" [ "alpha"; ""; "g\x00mma" ]
    (Transport.Wal.replay_file path);
  (* append after reopen continues the log *)
  let records, w = Transport.Wal.recover path in
  Alcotest.(check int) "recovered count" 3 (List.length records);
  Transport.Wal.append w "delta";
  Transport.Wal.close w;
  Alcotest.(check int) "after reopen" 4
    (List.length (Transport.Wal.replay_file path))

let test_wal_torn_tail () =
  let path = Filename.concat (unique_dir ()) "torn.wal" in
  let w = Transport.Wal.create path in
  Transport.Wal.append w "good";
  Transport.Wal.close w;
  (* simulate a crash mid-append: a length prefix promising more bytes
     than the file holds *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x00\x00\x00\xffpartial";
  close_out oc;
  Alcotest.(check (list string))
    "torn tail dropped" [ "good" ]
    (Transport.Wal.replay_file path);
  let records, w = Transport.Wal.recover path in
  Alcotest.(check (list string)) "recover agrees" [ "good" ] records;
  (* recovery rewrote the file: the torn bytes are gone for good *)
  Transport.Wal.append w "next";
  Transport.Wal.close w;
  Alcotest.(check (list string))
    "clean after recovery" [ "good"; "next" ]
    (Transport.Wal.replay_file path)

(* ------------------------------------------------------------------ *)
(* The consistency oracle (regression for the crashed-prefix fix)      *)
(* ------------------------------------------------------------------ *)

let check_logs_case ~alive logs =
  let topo = Topology.symmetric ~groups:1 ~per_group:(Array.length logs) in
  Rsm.check_logs ~topology:topo ~alive:(fun p -> List.mem p alive) ~logs

let test_check_logs_prefix () =
  (* A crashed replica holding a strict prefix is NOT a violation — the
     old equality check flagged exactly this. *)
  let logs = [| [ "a"; "b"; "c" ]; [ "a"; "b"; "c" ]; [ "a" ] |] in
  Alcotest.(check (list string))
    "crashed prefix accepted" []
    (check_logs_case ~alive:[ 0; 1 ] logs);
  (* ...but a CORRECT replica holding a strict prefix still is one. *)
  Alcotest.(check bool)
    "correct prefix rejected" true
    (check_logs_case ~alive:[ 0; 1; 2 ] logs <> [])

let test_check_logs_divergence_message () =
  (* Same length, different content: the message names the first
     diverging index and both commands. *)
  let logs = [| [ "a"; "b"; "c" ]; [ "a"; "x"; "c" ] |] in
  match check_logs_case ~alive:[ 0; 1 ] logs with
  | [ v ] ->
    Alcotest.(check bool)
      (Printf.sprintf "names index 1 (%s)" v)
      true
      (contains ~needle:"index 1" v
      && contains ~needle:"\"b\"" v
      && contains ~needle:"\"x\"" v)
  | vs ->
    Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_check_logs_crashed_divergence () =
  (* A crashed replica may stop short, but what it applied must be a
     prefix: divergence inside the prefix is a violation. *)
  let logs = [| [ "a"; "b"; "c" ]; [ "a"; "z" ] |] in
  Alcotest.(check bool)
    "crashed divergence rejected" true
    (check_logs_case ~alive:[ 0 ] logs <> [])

let test_des_crashed_replica_prefix () =
  (* End-to-end regression on the DES deployment: a replica crashes mid
     run, ends with a strict prefix, and check_consistency accepts it.
     Under the pre-fix equality check this scenario reported a violation. *)
  let module KV = Rsm.Make (Amcast.A1) in
  let topo = Topology.symmetric ~groups:1 ~per_group:3 in
  let spec : (int, int) Rsm.spec =
    {
      initial = (fun () -> 0);
      apply = ( + );
      encode = string_of_int;
      decode = int_of_string;
      placement = (fun _ -> [ 0 ]);
    }
  in
  let t = KV.deploy ~latency:Util.crisp_latency ~spec topo in
  Runtime.Engine.schedule_crash ~drop:Runtime.Engine.Lose_all_inflight
    (KV.engine t)
    ~at:(Des.Sim_time.of_ms 40)
    2;
  List.iteri
    (fun i d ->
      ignore (KV.submit t ~at:(Des.Sim_time.of_ms (1 + (30 * i))) ~origin:0 d))
    [ 1; 2; 3; 4 ];
  ignore (KV.run t);
  let lag = List.length (KV.log_of t 0) - List.length (KV.log_of t 2) in
  Alcotest.(check bool) "crashed replica actually lags" true (lag > 0);
  Util.check_no_violations "prefix-aware consistency"
    (KV.check_consistency t)

(* ------------------------------------------------------------------ *)
(* TCP transport units                                                 *)
(* ------------------------------------------------------------------ *)

let string_codec : string Transport.Tcp.codec =
  { encode = Fun.id; decode = Fun.id }

let test_tcp_send_and_clock () =
  (* Two singleton groups: an inter-group send must advance the
     receiver's modified Lamport clock by one, exactly like the DES. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:1 in
  let addrs = Transport.Tcp.localhost_addrs ~base_port:7500 topo in
  let mk self =
    Transport.Tcp.create ~codec:string_codec ~topology:topo ~self ~addrs ()
  in
  let n0 = mk 0 and n1 = mk 1 in
  let got = ref [] in
  let mu = Mutex.create () in
  Transport.Tcp.set_receiver n1 (fun ~src w ->
      Mutex.lock mu;
      got := (src, w) :: !got;
      Mutex.unlock mu);
  Transport.Tcp.start n0;
  Transport.Tcp.start n1;
  let tr0 = Transport.Tcp.services n0 in
  Transport.Tcp.post n0 (fun () ->
      tr0.Runtime.Services.send ~dst:1 "hello";
      tr0.Runtime.Services.send_multi [ 1 ] "again");
  let arrived () =
    Mutex.lock mu;
    let n = List.length !got in
    Mutex.unlock mu;
    n = 2
  in
  Alcotest.(check bool) "frames arrive" true (await arrived);
  Mutex.lock mu;
  let msgs = List.rev !got in
  Mutex.unlock mu;
  Alcotest.(check (list (pair int string)))
    "payloads and sources in order"
    [ (0, "hello"); (0, "again") ]
    msgs;
  Alcotest.(check int) "inter-group receive ticked the clock" 1
    (Transport.Tcp.lc n1);
  Alcotest.(check int) "sender clock unmoved" 0 (Transport.Tcp.lc n0);
  Alcotest.(check int) "inter-group counter" 2 (Transport.Tcp.sent_inter n0);
  Transport.Tcp.stop n0;
  Transport.Tcp.stop n1

let test_tcp_timers () =
  let topo = Topology.symmetric ~groups:1 ~per_group:1 in
  let addrs = Transport.Tcp.localhost_addrs ~base_port:7510 topo in
  let n0 =
    Transport.Tcp.create ~codec:string_codec ~topology:topo ~self:0 ~addrs ()
  in
  Transport.Tcp.start n0;
  let tr = Transport.Tcp.services n0 in
  let fired = ref [] in
  Transport.Tcp.post n0 (fun () ->
      ignore
        (tr.Runtime.Services.set_timer ~after:(Des.Sim_time.of_ms 30)
           (fun () -> fired := "late" :: !fired));
      ignore
        (tr.Runtime.Services.set_timer ~after:(Des.Sim_time.of_ms 5)
           (fun () -> fired := "early" :: !fired));
      let cancelled =
        tr.Runtime.Services.set_timer ~after:(Des.Sim_time.of_ms 10)
          (fun () -> fired := "cancelled" :: !fired)
      in
      tr.Runtime.Services.cancel_timer cancelled);
  Alcotest.(check bool)
    "both fire" true
    (await (fun () -> List.length !fired = 2));
  Alcotest.(check (list string))
    "in delay order, cancelled one skipped" [ "early"; "late" ]
    (List.rev !fired);
  Transport.Tcp.stop n0

(* Framing over a raw socket: the node must split one write carrying
   many frames (and a body larger than one 64 KiB read) into the same
   frames, and reassemble one frame written in two pieces. *)
let test_tcp_raw_framing () =
  let topo = Topology.symmetric ~groups:1 ~per_group:2 in
  let addrs = Transport.Tcp.localhost_addrs ~base_port:7550 topo in
  let n1 =
    Transport.Tcp.create ~codec:string_codec ~topology:topo ~self:1 ~addrs ()
  in
  let got = ref [] in
  let mu = Mutex.create () in
  Transport.Tcp.set_receiver n1 (fun ~src w ->
      Mutex.lock mu;
      got := (src, w) :: !got;
      Mutex.unlock mu);
  Transport.Tcp.start n1;
  let frame kind fields payload =
    let body = Bytes.make (1 + fields + String.length payload) '\000' in
    Bytes.set body 0 kind;
    Bytes.blit_string payload 0 body (1 + fields) (String.length payload);
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int (Bytes.length body));
    Bytes.to_string b ^ Bytes.to_string body
  in
  let hello =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 0l;
    frame 'H' 0 (Bytes.to_string b)
  in
  let small = List.init 300 (fun i -> "m" ^ string_of_int i) in
  let big = String.init 100_000 (fun i -> Char.chr (97 + (i mod 26))) in
  let split = "split across two writes" in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Transport.Tcp.stop n1)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 7551));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      let write s =
        let b = Bytes.of_string s in
        let off = ref 0 in
        while !off < Bytes.length b do
          off := !off + Unix.write fd b !off (Bytes.length b - !off)
        done
      in
      write
        (String.concat ""
           (hello :: List.map (frame 'D' 8) (small @ [ big ])));
      let last = frame 'D' 8 split in
      write (String.sub last 0 7);
      Thread.delay 0.05;
      write (String.sub last 7 (String.length last - 7));
      let expected = List.map (fun w -> (0, w)) (small @ [ big; split ]) in
      let count () =
        Mutex.lock mu;
        let n = List.length !got in
        Mutex.unlock mu;
        n
      in
      Alcotest.(check bool)
        "every frame arrives" true
        (await (fun () -> count () = List.length expected));
      Mutex.lock mu;
      let msgs = List.rev !got in
      Mutex.unlock mu;
      Alcotest.(check bool) "same frames, in order" true (msgs = expected))

(* ------------------------------------------------------------------ *)
(* The replicated KV service, end to end over real sockets             *)
(* ------------------------------------------------------------------ *)

module Svc = Transport.Kv_service.Make (Amcast.A1)

let test_kv_service_end_to_end () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let t = Svc.create ~base_port:7520 ~dir:(unique_dir ()) topo in
  Fun.protect
    ~finally:(fun () -> Svc.stop t)
    (fun () ->
      (* keys on both shards *)
      let k0 = "apple" and k1 = "banana" in
      let g0 = Svc.group_of_key t k0 and g1 = Svc.group_of_key t k1 in
      Alcotest.(check bool) "keys land on different shards" true (g0 <> g1);
      let client_to key =
        Transport.Tcp.Client.connect (Svc.addr_of t (Svc.contact_for t key))
      in
      let c0 = client_to k0 and c1 = client_to k1 in
      Alcotest.(check (pair bool string))
        "SET" (true, "OK")
        (Transport.Tcp.Client.request c0 ("SET " ^ k0 ^ " 17"));
      Alcotest.(check (pair bool string))
        "GET sees the write" (true, "17")
        (Transport.Tcp.Client.request c0 ("GET " ^ k0));
      Alcotest.(check (pair bool string))
        "other shard independent" (false, "")
        (Transport.Tcp.Client.request c1 ("GET " ^ k1));
      Alcotest.(check (pair bool string))
        "SET other shard" (true, "OK")
        (Transport.Tcp.Client.request c1 ("SET " ^ k1 ^ " pear juice"));
      Alcotest.(check (pair bool string))
        "values may contain spaces" (true, "pear juice")
        (Transport.Tcp.Client.request c1 ("GET " ^ k1));
      Alcotest.(check (pair bool string))
        "DEL" (true, "OK")
        (Transport.Tcp.Client.request c0 ("DEL " ^ k0));
      Alcotest.(check (pair bool string))
        "GET after DEL misses" (false, "")
        (Transport.Tcp.Client.request c0 ("GET " ^ k0));
      let ok, reply = Transport.Tcp.Client.request c0 "nonsense" in
      Alcotest.(check bool) "parse errors rejected" false ok;
      Alcotest.(check string) "parse error text" "ERR parse" reply;
      (* a client talking to the wrong shard is redirected *)
      let wrong = Transport.Tcp.Client.request c1 ("GET " ^ k0) in
      (match wrong with
      | false, r ->
        Alcotest.(check bool)
          (Printf.sprintf "redirect reply (%s)" r)
          true
          (String.length r >= 8 && String.sub r 0 8 = "REDIRECT")
      | true, _ -> Alcotest.fail "wrong-shard request not redirected");
      Transport.Tcp.Client.close c0;
      Transport.Tcp.Client.close c1;
      (* both replicas of each shard converge; the checkers audit the run *)
      let counts_settled () =
        List.for_all
          (fun g ->
            match Topology.members topo g with
            | a :: rest ->
              List.for_all (fun b -> Svc.applied t b = Svc.applied t a) rest
            | [] -> true)
          (Topology.all_groups topo)
      in
      Alcotest.(check bool) "replicas settle" true (await counts_settled);
      Util.check_no_violations "replica consistency"
        (Svc.check_consistency t);
      let r = Svc.run_result t in
      Util.check_no_violations "protocol safety on the real run"
        (Harness.Checker.check_all r))

(* ------------------------------------------------------------------ *)
(* DES vs real: the deterministic-twin differential                    *)
(* ------------------------------------------------------------------ *)

module Des_kv = Rsm.Make (Amcast.A1)

let differential_commands =
  (* fixed little history touching both shards, with key reuse *)
  [
    Transport.Kv.Set ("apple", "1");
    Transport.Kv.Set ("banana", "2");
    Transport.Kv.Get "apple";
    Transport.Kv.Set ("apple", "3");
    Transport.Kv.Del "banana";
    Transport.Kv.Get "banana";
    Transport.Kv.Set ("cherry", "4");
    Transport.Kv.Get "cherry";
  ]

let test_des_vs_real_differential () =
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let groups = Topology.n_groups topo in
  let spec = Transport.Kv.spec ~groups in
  let origin_of cmd =
    (* deterministic choice both backends share: the first member of the
       command's (single) placement group *)
    List.hd (Topology.members topo (List.hd (spec.Rsm.placement cmd)))
  in
  (* DES side: one command at a time, spaced far enough apart that each
     is fully delivered before the next is cast — the same single-in-
     flight discipline the real side enforces by waiting. *)
  let des = Des_kv.deploy ~latency:Util.crisp_latency ~spec topo in
  List.iteri
    (fun i cmd ->
      ignore
        (Des_kv.submit des
           ~at:(Des.Sim_time.of_ms (1 + (500 * i)))
           ~origin:(origin_of cmd) cmd))
    differential_commands;
  let des_result = Des_kv.run des in
  Util.check_no_violations "DES protocol safety"
    (Harness.Checker.check_all des_result);
  Util.check_no_violations "DES replica consistency"
    (Des_kv.check_consistency des);
  (* real side: submit, wait until every addressee applied it, repeat *)
  let t = Svc.create ~base_port:7530 ~dir:(unique_dir ()) topo in
  Fun.protect
    ~finally:(fun () -> Svc.stop t)
    (fun () ->
      let expected = Array.make (Topology.n_processes topo) 0 in
      List.iter
        (fun cmd ->
          let g = List.hd (spec.Rsm.placement cmd) in
          let members = Topology.members topo g in
          List.iter (fun p -> expected.(p) <- expected.(p) + 1) members;
          ignore (Svc.submit t ~origin:(origin_of cmd) cmd);
          let applied () =
            List.for_all (fun p -> Svc.applied t p = expected.(p)) members
          in
          if not (await applied) then
            Alcotest.failf "command %s never fully delivered"
              (Transport.Kv.print cmd))
        differential_commands;
      (* identical per-replica command sequences... *)
      List.iter
        (fun pid ->
          Alcotest.(check (list string))
            (Printf.sprintf "p%d delivery sequence" pid)
            (List.map spec.Rsm.encode (Des_kv.log_of des pid))
            (List.map spec.Rsm.encode (Svc.log_of t pid)))
        (Topology.all_pids topo);
      (* ...and identical checker verdicts *)
      let real_result = Svc.run_result t in
      Alcotest.(check (list string))
        "checker verdicts agree"
        (Harness.Checker.check_all des_result)
        (Harness.Checker.check_all real_result);
      Util.check_no_violations "real replica consistency"
        (Svc.check_consistency t))

(* ------------------------------------------------------------------ *)
(* Crash, WAL recovery, learner catch-up                               *)
(* ------------------------------------------------------------------ *)

let test_kv_crash_recovery () =
  let topo = Topology.symmetric ~groups:2 ~per_group:3 in
  let groups = Topology.n_groups topo in
  let spec = Transport.Kv.spec ~groups in
  let t = Svc.create ~base_port:7540 ~dir:(unique_dir ()) topo in
  Fun.protect
    ~finally:(fun () -> Svc.stop t)
    (fun () ->
      (* pick two distinct group-0 keys and the LAST member of that group
         (not the coordinator) as the victim *)
      let keys_of_group g =
        let rec go i acc =
          if List.length acc = 2 then List.rev acc
          else
            let k = Printf.sprintf "key%d" i in
            go (i + 1)
              (if Transport.Kv.group_of_key ~groups k = g then k :: acc
               else acc)
        in
        go 0 []
      in
      let key, key2 =
        match keys_of_group 0 with
        | [ a; b ] -> (a, b)
        | _ -> assert false
      in
      let members = Topology.members topo 0 in
      let victim = List.nth members (List.length members - 1) in
      let submit cmd =
        let g = List.hd (spec.Rsm.placement cmd) in
        ignore (Svc.submit t ~origin:(List.hd (Topology.members topo g)) cmd)
      in
      (* phase 1: writes everyone sees *)
      submit (Transport.Kv.Set (key, "before"));
      let all_applied n () =
        List.for_all (fun p -> Svc.applied t p >= n) members
      in
      Alcotest.(check bool) "phase-1 settles" true (await (all_applied 1));
      (* crash the victim, keep writing: the 2/3 majority continues *)
      Svc.crash t victim;
      submit (Transport.Kv.Set (key, "during"));
      submit (Transport.Kv.Set (key2, "more"));
      let survivors = List.filter (fun p -> p <> victim) members in
      let survivors_applied n () =
        List.for_all (fun p -> Svc.applied t p >= n) survivors
      in
      Alcotest.(check bool)
        "majority keeps committing" true
        (await (survivors_applied 3));
      Alcotest.(check bool)
        "victim is behind" true
        (Svc.applied t victim < 3);
      (* consistency already holds: the victim's log is a prefix *)
      Util.check_no_violations "prefix consistency while down"
        (Svc.check_consistency t);
      (* restart: WAL replay + anti-entropy catch-up *)
      Svc.restart t victim;
      Alcotest.(check bool)
        "learner catches up" true
        (await (fun () -> Svc.synced t victim));
      Alcotest.(check (list string))
        "restarted replica converged"
        (List.map spec.Rsm.encode (Svc.log_of t (List.hd survivors)))
        (List.map spec.Rsm.encode (Svc.log_of t victim));
      (match Svc.state_of t victim |> fun s -> Transport.Kv.query s key with
      | Some v -> Alcotest.(check string) "state caught up" "during" v
      | None -> Alcotest.fail "restarted replica lost the key");
      Util.check_no_violations "consistency after restart"
        (Svc.check_consistency t))

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "transport",
      [
        Alcotest.test_case "wal roundtrip" `Quick test_wal_roundtrip;
        Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail;
        Alcotest.test_case "check_logs: crashed prefix" `Quick
          test_check_logs_prefix;
        Alcotest.test_case "check_logs: divergence message" `Quick
          test_check_logs_divergence_message;
        Alcotest.test_case "check_logs: crashed divergence" `Quick
          test_check_logs_crashed_divergence;
        Alcotest.test_case "DES crashed replica is a prefix" `Quick
          test_des_crashed_replica_prefix;
        Alcotest.test_case "tcp send + lamport clock" `Quick
          test_tcp_send_and_clock;
        Alcotest.test_case "tcp timers" `Quick test_tcp_timers;
        Alcotest.test_case "tcp raw framing" `Quick test_tcp_raw_framing;
        Alcotest.test_case "kv service end to end" `Quick
          test_kv_service_end_to_end;
        Alcotest.test_case "DES vs real differential" `Quick
          test_des_vs_real_differential;
        Alcotest.test_case "crash, WAL recovery, catch-up" `Quick
          test_kv_crash_recovery;
      ] );
  ]
