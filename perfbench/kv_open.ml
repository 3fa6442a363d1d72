(* kv_open: open-loop load against the replicated KV service on localhost.

   The cluster ([Kv_service.Make (A1)], 2 groups x 3 replicas, no
   injected delay) runs in a child process forked before any thread
   starts, so its replica loop threads share one domain lock that the
   load generator never competes for. The parent is a single-threaded
   generator: Poisson requests on a precomputed schedule over one
   pipelined connection per group, replies read with select, every
   request timed from the instant it was due.

   The parent drives the child over a pipe with one-line commands (boot,
   stop, mark, crash, restart, finish) and reads one-line answers. *)

let now = Unix.gettimeofday
let groups = 2
let per_group = 3
let topology = Net.Topology.symmetric ~groups ~per_group

(* Group 0's first consensus coordinator is its lowest pid
   ([Paxos.coordinator_of] ballot 0); clients talk to other members. *)
let coordinator = 0
let contact = [| 1; 4 |]

(* Outstanding requests beyond which the run is abandoned as a failure
   rather than left to exhaust memory. *)
let max_outstanding = 20000

(* ---------- child: the cluster ---------- *)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let child ~traced ~base_port ~dir cmd_in rep_out =
  let proto =
    if traced then (module Timed.Make (Amcast.A1) : Amcast.Protocol.S)
    else (module Amcast.A1 : Amcast.Protocol.S)
  in
  let module S = Transport.Kv_service.Make ((val proto)) in
  let ic = Unix.in_channel_of_descr cmd_in in
  let oc = Unix.out_channel_of_descr rep_out in
  let answer s = output_string oc (s ^ "\n"); flush oc in
  let cluster = ref None in
  let get () = Option.get !cluster in
  let delivered t =
    List.fold_left (fun s p -> s + S.applied t p) 0 (Net.Topology.all_pids topology)
  in
  let rec loop () =
    match String.split_on_char ' ' (input_line ic) with
    | [ "boot" ] ->
      ignore (Timed.drain ());
      let t0 = now () in
      cluster := Some (S.create ~seed:1 ~base_port ~dir topology);
      answer (Printf.sprintf "booted %.6f" (now () -. t0));
      loop ()
    | [ "stop" ] ->
      S.stop (get ());
      cluster := None;
      answer "stopped";
      loop ()
    | [ "mark" ] ->
      (* cpu, A-deliveries, loop events, intra and inter messages, wall,
         top heap *)
      let t = get () in
      let r = S.run_result t in
      answer
        (Printf.sprintf "marked %.6f %d %d %d %d %.6f %d" (cpu ()) (delivered t)
           r.Harness.Run_result.events_executed r.Harness.Run_result.intra_group_msgs
           r.Harness.Run_result.inter_group_msgs (now ())
           (Gc.quick_stat ()).Gc.top_heap_words);
      loop ()
    | [ "crash"; p ] ->
      S.crash (get ()) (int_of_string p);
      answer "crashed";
      loop ()
    | [ "restart"; p ] ->
      let p = int_of_string p and t = get () in
      let t0 = now () in
      S.restart t p;
      let ok = S.await ~timeout:10. (fun () -> S.synced t p) in
      answer (Printf.sprintf "synced %b %.6f" ok (now () -. t0));
      loop ()
    | [ "finish" ] ->
      let t = get () in
      let r = S.run_result t in
      let consistency = S.check_consistency t in
      let violations =
        Harness.Checker.uniform_integrity r @ Harness.Checker.uniform_prefix_order r
      in
      let layers = Timed.drain () in
      S.stop t;
      List.iter (fun v -> prerr_endline ("kv consistency: " ^ v)) consistency;
      List.iter (fun v -> prerr_endline ("kv checker: " ^ v)) violations;
      let gc = Gc.quick_stat () in
      let kv = [
        ("cpu_total_s", cpu ());
        ("minor_words", gc.Gc.minor_words);
        ("minor_collections", float gc.Gc.minor_collections);
        ("major_collections", float gc.Gc.major_collections);
        ("delivered_total", float (delivered t));
        ("consistency_violations", float (List.length consistency));
        ("checker_violations", float (List.length violations));
        ("covered_s", layers.Timed.t_covered_s);
        ("sends", float layers.Timed.t_sends);
        ("send_events", float layers.Timed.t_send_events);
        ("timers_set", float layers.Timed.t_timers_set);
        ("timers_cancelled", float layers.Timed.t_timers_cancelled);
      ] @ List.concat (Array.to_list (Array.mapi (fun i n ->
          [ (n ^ ".self_s", layers.Timed.t_self_s.(i));
            (n ^ ".calls", float layers.Timed.t_calls.(i)) ]) Timed.layer_names))
      in
      answer
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) kv))
    | _ -> failwith "kv child: bad command"
  in
  (try loop () with End_of_file -> ());
  Option.iter S.stop !cluster;
  exit 0

(* ---------- parent: framing ---------- *)

let frame body =
  let n = String.length body in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string body 0 b 4 n;
  Bytes.unsafe_to_string b

let request_frame ~req payload =
  let b = Bytes.create 9 in
  Bytes.set b 0 'Q';
  Bytes.set_int64_be b 1 (Int64.of_int req);
  frame (Bytes.unsafe_to_string b ^ payload)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

type op = Get of string | Set of string * string | Del of string

type req = { due : float; phase : int; group : int; op : op }

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable next_req : int;
  outstanding : (int, req) Hashtbl.t;
  model : (string, string) Hashtbl.t; (* the group's store, in reply order *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  write_all fd (frame "C") 0;
  { fd; buf = Buffer.create 4096; next_req = 0; outstanding = Hashtbl.create 1024;
    model = Hashtbl.create 64 }

(* ---------- parent: the schedule ---------- *)

(* Load.default's mix: 64 keys, 32-byte values, 50% GET, 5% DEL. *)
let keyspace = 64

let gen_ops rng ~phase ~start ~rate ~duration =
  let rec go t acc =
    let t = t +. Des.Rng.exponential rng ~mean:(1. /. rate) in
    if t >= duration then List.rev acc
    else begin
      let key = Printf.sprintf "k%d" (Des.Rng.int rng keyspace) in
      let roll = Des.Rng.float rng 1.0 in
      let op =
        if roll < 0.5 then Get key
        else if roll < 0.55 then Del key
        else Set (key, Printf.sprintf "%032d" (Des.Rng.int rng 1_000_000_000))
      in
      let group = Transport.Kv.group_of_key ~groups key in
      go t ({ due = start +. t; phase; group; op } :: acc)
    end
  in
  go 0. []

let payload = function
  | Get k -> "GET " ^ k
  | Del k -> "DEL " ^ k
  | Set (k, v) -> "SET " ^ k ^ " " ^ v

(* ---------- parent: phases and their statistics ---------- *)

type phase = {
  rate : float; (* offered ops/s *)
  duration : float;
  mutable latencies : float list; (* ms, from due to reply *)
  mutable late : float list; (* ms, from due to send *)
  mutable inflight : (float * int) list; (* (offset in phase, outstanding) *)
  mutable replies : int;
  mutable sent : int;
  mutable start : float;
}

let phase rate duration =
  { rate; duration; latencies = []; late = []; inflight = []; replies = 0;
    sent = 0; start = 0. }

(* A rung is over capacity when the backlog grows across it: the mean
   number outstanding over its last third exceeds that over its first
   third by half, plus slack for Poisson noise. *)
let backlog_grows p =
  let third = p.duration /. 3. in
  let mean l = match l with [] -> 0. | _ ->
    float (List.fold_left ( + ) 0 l) /. float (List.length l) in
  let first = List.filter_map (fun (o, n) -> if o < third then Some n else None) p.inflight
  and last = List.filter_map (fun (o, n) -> if o >= 2. *. third then Some n else None) p.inflight in
  mean last > 1.5 *. mean first +. 8.

type mark = {
  cpu : float;
  delivered : float;
  events : float;
  intra : float;
  inter : float;
  wall : float;
  heap_words : float;
}

type load_result = {
  bad : string list; (* wrong, unknown or duplicated replies *)
  outage_ms : float;
  catchup : (bool * float) option;
  marks : mark list; (* child snapshots, in order *)
  sent_total : int;
  inflight_peak : int;
  gen_late_p99_ms : float;
}

(* Run [phases] back to back against [conns]; [actions] are (offset from
   the start, command) pairs sent to the child on the way. *)
let drive ~rng ~conns ~child_in ~child_out ~phases ~actions =
  let t0 = now () +. 0.05 in
  let starts = ref t0 in
  let reqs =
    List.concat
      (List.mapi
         (fun i p ->
           p.start <- !starts;
           let r = gen_ops rng ~phase:i ~start:!starts ~rate:p.rate ~duration:p.duration in
           starts := !starts +. p.duration;
           r)
         phases)
  in
  let phases = Array.of_list phases in
  let t_end = !starts in
  let pending = ref reqs in
  let actions = ref (List.map (fun (o, c) -> (t0 +. o, c)) actions) in
  let bad = ref [] in
  let crash_at = ref infinity and last_g0 = ref 0. and outage = ref 0. in
  let catchup = ref None in
  let answers_due = ref 0 in
  let marks = ref [] in
  let outstanding () = Array.fold_left (fun s c -> s + Hashtbl.length c.outstanding) 0 conns in
  let peak = ref 0 in
  let child_buf = Buffer.create 256 in
  let on_reply c ~req ~ok v =
    let t = now () in
    match Hashtbl.find_opt c.outstanding req with
    | None -> bad := Printf.sprintf "reply to unknown or duplicate request %d" req :: !bad
    | Some r ->
      Hashtbl.remove c.outstanding req;
      let p = phases.(r.phase) in
      p.replies <- p.replies + 1;
      p.latencies <- (t -. r.due) *. 1000. :: p.latencies;
      if r.group = 0 && t > !crash_at then begin
        outage := max !outage (t -. max !last_g0 !crash_at);
        last_g0 := t
      end
      else if r.group = 0 then last_g0 := t;
      let expect =
        match r.op with
        | Set (k, v) -> Hashtbl.replace c.model k v; (true, "OK")
        | Del k -> Hashtbl.remove c.model k; (true, "OK")
        | Get k -> (
          match Hashtbl.find_opt c.model k with
          | Some v -> (true, v)
          | None -> (false, ""))
      in
      if expect <> (ok, v) then
        bad := Printf.sprintf "%s -> %b %S" (payload r.op) ok v :: !bad
  in
  (* Handle every complete frame in [c.buf]; keep the partial tail. *)
  let parse c =
    let s = Buffer.contents c.buf in
    let len = String.length s in
    let rec go off =
      if len - off < 4 then off
      else
        let n = Int32.to_int (String.get_int32_be s off) in
        if len - off < 4 + n then off
        else begin
          if n >= 10 && s.[off + 4] = 'R' then
            on_reply c
              ~req:(Int64.to_int (String.get_int64_be s (off + 5)))
              ~ok:(s.[off + 13] = '\001')
              (String.sub s (off + 14) (n - 10))
          else bad := "malformed reply frame" :: !bad;
          go (off + 4 + n)
        end
    in
    let off = go 0 in
    Buffer.clear c.buf;
    Buffer.add_substring c.buf s off (len - off)
  in
  let child_line line =
    decr answers_due;
    match String.split_on_char ' ' line with
    | [ "crashed" ] -> ()
    | [ "marked"; c; d; e; i; x; w; h ] ->
      let f = float_of_string in
      marks := { cpu = f c; delivered = f d; events = f e; intra = f i; inter = f x;
                 wall = f w; heap_words = f h } :: !marks
    | [ "synced"; ok; s ] -> catchup := Some (bool_of_string ok, float_of_string s)
    | _ -> bad := ("child: " ^ line) :: !bad
  in
  let chunk = Bytes.create 65536 in
  let read_fd fd =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> raise End_of_file
    | k -> k
  in
  let finished () =
    !pending = [] && !actions = [] && outstanding () = 0 && !answers_due = 0
    || now () > t_end +. 10.
    || outstanding () > max_outstanding
  in
  while not (finished ()) do
    let t = now () in
    (* fire due child commands *)
    (match !actions with
     | (at, cmd) :: rest when at <= t ->
       actions := rest;
       if String.length cmd >= 5 && String.sub cmd 0 5 = "crash" then crash_at := t;
       incr answers_due;
       write_all child_in (cmd ^ "\n") 0
     | _ -> ());
    (* send every request that is due *)
    let rec send_due () =
      match !pending with
      | r :: rest when r.due <= t ->
        pending := rest;
        let c = conns.(r.group) in
        let req = c.next_req in
        c.next_req <- req + 1;
        Hashtbl.replace c.outstanding req r;
        let p = phases.(r.phase) in
        let sent = now () in
        write_all c.fd (request_frame ~req (payload r.op)) 0;
        p.sent <- p.sent + 1;
        p.late <- (sent -. r.due) *. 1000. :: p.late;
        let n = outstanding () in
        peak := max !peak n;
        p.inflight <- (r.due -. p.start, n) :: p.inflight;
        send_due ()
      | _ -> ()
    in
    send_due ();
    let next =
      match (!pending, !actions) with
      | r :: _, (a, _) :: _ -> min r.due a
      | r :: _, [] -> r.due
      | [], (a, _) :: _ -> a
      | [], [] -> now () +. 0.05
    in
    let timeout = max 0. (min 0.05 (next -. now ())) in
    let fds = child_out :: Array.to_list (Array.map (fun c -> c.fd) conns) in
    let readable, _, _ =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let k = read_fd fd in
        if fd = child_out then begin
          Buffer.add_subbytes child_buf chunk 0 k;
          let s = Buffer.contents child_buf in
          let lines = String.split_on_char '\n' s in
          let rec feed = function
            | [ rest ] -> Buffer.clear child_buf; Buffer.add_string child_buf rest
            | l :: rest -> child_line l; feed rest
            | [] -> ()
          in
          feed lines
        end
        else
          Array.iter
            (fun c ->
              if c.fd = fd then begin
                Buffer.add_subbytes c.buf chunk 0 k;
                parse c
              end)
            conns)
      readable
  done;
  let lost = outstanding () in
  if lost > 0 then bad := Printf.sprintf "%d requests never answered" lost :: !bad;
  let late = List.concat_map (fun p -> p.late) (Array.to_list phases) in
  {
    bad = !bad;
    outage_ms = !outage *. 1000.;
    catchup = !catchup;
    marks = List.rev !marks;
    sent_total = Array.fold_left (fun n p -> n + p.sent) 0 phases;
    inflight_peak = !peak;
    gen_late_p99_ms = Report.percentile 99. late;
  }

(* ---------- parent: the workload ---------- *)

(* The offered-rate ladder (ops/s). It stops below the rate where this
   host's pinned cluster can fall behind (8-16k ops/s from run to run):
   past it the backlog, and the child's heap, grow by gigabytes within
   seconds. The reporting rungs sit near a quarter and three quarters of
   the highest rung that holds the latency limit. *)
let ladder = [ 1000.; 2500.; 4000.; 5500.; 7000.; 8500. ]
let low_rung = 2500.
let high_rung = 7000.

let latency_limit_ms = 20.

let free_base_port seed =
  let try_base base =
    let socks =
      List.init (groups * per_group) (fun i ->
          let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt s Unix.SO_REUSEADDR true;
          match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, base + i)) with
          | () -> (s, true)
          | exception Unix.Unix_error _ -> (s, false))
    in
    List.iter (fun (s, _) -> Unix.close s) socks;
    List.for_all snd socks
  in
  let rec pick k =
    if k > 200 then failwith "kv_open: no free port range"
    else
      let base = 20000 + ((seed * 7919 + Unix.getpid () + k * 16) mod 2000) * 16 in
      if try_base base then base else pick (k + 1)
  in
  pick 0

(* The CPUs this process may run on, as [taskset -cp] reports them
   ("pid 42's current affinity list: 0-1,4"); [] when unknown. *)
let allowed_cpus () =
  let range r =
    match List.map int_of_string_opt (String.split_on_char '-' (String.trim r)) with
    | [ Some a ] -> [ a ]
    | [ Some a; Some b ] -> List.init (b - a + 1) (fun i -> a + i)
    | _ -> []
  in
  match
    Unix.open_process_args_in "taskset"
      [| "taskset"; "-cp"; string_of_int (Unix.getpid ()) |]
  with
  | exception Unix.Unix_error _ -> []
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    (match String.rindex_opt line ':' with
     | Some i ->
       List.concat_map range
         (String.split_on_char ',' (String.sub line (i + 1) (String.length line - i - 1)))
     | None -> [])

(* Pin the cluster child and the generator to two different CPUs. Without
   it, replica threads handing the domain lock to each other across cores
   made CPU per delivery vary twofold between identical runs on this host.
   Skipped (and reported) when fewer than two CPUs or no taskset. *)
let pin ~child =
  match allowed_cpus () with
  | a :: b :: _ ->
    let taskset cpu pid =
      match
        Unix.create_process "taskset"
          [| "taskset"; "-p"; "-c"; string_of_int cpu; string_of_int pid |]
          Unix.stdin
          (Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0)
          Unix.stderr
      with
      | p -> (match Unix.waitpid [] p with _, Unix.WEXITED 0 -> true | _ -> false)
      | exception Unix.Unix_error _ -> false
    in
    taskset b child && taskset a (Unix.getpid ())
  | _ -> false

let remove_dir dir =
  try
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  with Sys_error _ | Unix.Unix_error _ -> ()

type result = {
  setup_samples : float list;
  rungs : phase list;
  load : load_result;
  child_stats : (string * float) list;
  max_rate : float;
  pinned : bool;
}

let run ~seed ~seconds ~traced =
  let base_port = free_base_port seed in
  let dir = Filename.concat "_build" (Printf.sprintf "perfbench-kv-%d" (Unix.getpid ())) in
  (try Unix.mkdir "_build" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let cmd_r, cmd_w = Unix.pipe () and rep_r, rep_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close cmd_w;
    Unix.close rep_r;
    child ~traced ~base_port ~dir cmd_r rep_w
  | pid ->
    Unix.close cmd_r;
    Unix.close rep_w;
    let pinned = pin ~child:pid in
    let ic = Unix.in_channel_of_descr rep_r in
    let ask cmd =
      write_all cmd_w (cmd ^ "\n") 0;
      input_line ic
    in
    let boot () =
      let t0 = now () in
      (match String.split_on_char ' ' (ask "boot") with
       | [ "booted"; _ ] -> ()
       | _ -> failwith "kv_open: boot failed");
      let conns = Array.map (fun p -> connect (base_port + p)) contact in
      (conns, now () -. t0)
    in
    let close conns = Array.iter (fun c -> Unix.close c.fd) conns in
    (* set up five times; the last cluster is the one measured *)
    let setups = ref [] and conns = ref [||] in
    for i = 1 to 5 do
      let c, s = boot () in
      setups := s :: !setups;
      if i < 5 then begin
        close c;
        ignore (ask "stop")
      end
      else conns := c
    done;
    let conns = !conns in
    let rng = Des.Rng.create seed in
    let go phases actions =
      drive ~rng ~conns ~child_in:cmd_w ~child_out:rep_r ~phases ~actions
    in
    (* the ladder takes 60% of the run; the fault phase is fixed, since
       every 50 ms after the restart the learner is sent the whole log *)
    let rung_s = max 0.5 (0.6 *. seconds /. float (List.length ladder)) in
    let fault_s = 2.5 in
    let warm = go [ phase 2000. 1.0 ] [] in
    let rungs = List.map (fun r -> phase r rung_s) ladder in
    (* child snapshots: ladder start, end of the high rung, end of the
       ladder *)
    let offset rate =
      let rec find o = function
        | r :: rest -> if r = rate then o else find (o +. rung_s) rest
        | [] -> invalid_arg "offset"
      in
      find 0. ladder
    in
    let top = List.nth ladder (List.length ladder - 1) in
    let ladder_load =
      go rungs
        [ (0., "mark"); (offset high_rung +. rung_s, "mark");
          (offset top +. rung_s, "mark") ]
    in
    let fault =
      go [ phase 2000. fault_s ]
        [ (0.25 *. fault_s, Printf.sprintf "crash %d" coordinator);
          (0.5 *. fault_s, Printf.sprintf "restart %d" coordinator) ]
    in
    let stats = ask "finish" in
    ignore (Unix.waitpid [] pid);
    close conns;
    remove_dir dir;
    let child_stats =
      List.filter_map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
            Some (String.sub kv 0 i,
                  float_of_string (String.sub kv (i + 1) (String.length kv - i - 1)))
          | None -> None)
        (String.split_on_char ' ' stats)
    in
    let held p =
      p.latencies <> []
      && Report.percentile 99. p.latencies <= latency_limit_ms
      && not (backlog_grows p)
    in
    let max_rate =
      List.fold_left (fun acc p -> if held p then max acc p.rate else acc) 0. rungs
    in
    {
      setup_samples = !setups;
      rungs;
      load =
        {
          ladder_load with
          bad = warm.bad @ ladder_load.bad @ fault.bad;
          outage_ms = fault.outage_ms;
          catchup = fault.catchup;
          inflight_peak = max ladder_load.inflight_peak fault.inflight_peak;
          sent_total = warm.sent_total + ladder_load.sent_total + fault.sent_total;
        };
      child_stats;
      max_rate;
      pinned;
    }
