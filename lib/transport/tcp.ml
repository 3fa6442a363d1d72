(* Real async backend: Unix TCP sockets on localhost (or a real network)
   behind the same Runtime.Services record the DES engine builds.

   Concurrency model — one event-loop thread per node, and *everything*
   that touches node state runs on it: socket reads, timer callbacks,
   protocol handlers and externally [post]ed thunks. Protocol code
   therefore keeps the single-threaded process model it was written
   against in the simulator; no protocol-visible state needs a lock.
   External threads communicate exclusively through [post] (a mutex-guarded
   mailbox drained by the loop, with a self-pipe to interrupt [select]).

   Wire format — every frame is length-prefixed (4-byte big-endian body
   length), body = 1 kind byte + fields:

     'H' node hello      : 4-byte BE pid (sent once per outgoing connection)
     'D' protocol data   : 8-byte BE Lamport clock + codec-encoded payload
     'C' client hello    : empty
     'Q' client request  : 8-byte BE request id + payload
     'R' client reply    : 8-byte BE request id + 1 status byte + payload

   Node-to-node connections are unidirectional: node i dials node j and
   uses that socket only for i->j frames; j reads them from its accepted
   side. Dead peers are detected at write time (EPIPE/ECONNRESET with
   SIGPIPE ignored) and redialed once per transmit; a frame to a crashed
   process is dropped, which matches the quasi-reliable link model.

   Clocks — [now] is a monotonized wall clock in microseconds since the
   deployment epoch, shared by every node of an in-process cluster so
   cross-node timestamps are comparable. Timers reuse the DES event queue
   as a plain min-heap (same cancellation semantics protocols rely on).

   Delay injection — with [?inject], every send samples the configured
   Net.Latency shape (per-link base + jitter, intra vs inter group) from
   the node's private SplitMix stream and sits in the timer heap for that
   long before the bytes hit the socket: the WAN geometry of a simulated
   scenario reproduced on loopback. Like the simulator's network, injected
   jitter may reorder two frames on one link. *)

open Net

type peer = Unknown | Node of Topology.pid | Client

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable peer : peer;
  mutable open_ : bool;
}

type 'w codec = { encode : 'w -> string; decode : string -> 'w }

let marshal_codec () =
  {
    encode = (fun w -> Marshal.to_string w []);
    decode = (fun s -> Marshal.from_string s 0);
  }

type 'w t = {
  self : Topology.pid;
  topology : Topology.t;
  addrs : (string * int) array;
  codec : 'w codec;
  inject : Latency.t option;
  rng : Des.Rng.t;
  epoch : float;
  mutable last_wall : float;
  mutable listen_fd : Unix.file_descr option;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mailbox : (unit -> unit) Queue.t;
  mbox_mu : Mutex.t;
  timers : (unit -> unit) Des.Event_queue.t;
  mutable conns : conn list; (* accepted sockets *)
  outgoing : conn option array; (* dialed sockets, indexed by dst pid *)
  mutable receiver : src:Topology.pid -> 'w -> unit;
  mutable on_client : client -> req:int -> string -> unit;
  mutable lc : Lclock.t;
  mutable running : bool;
  mutable stopped : bool;
  mutable thread : Thread.t option;
  alive_view : bool array;
  mutable crash_subs :
    (Des.Sim_time.t * (Topology.pid -> unit)) list;
  mutable sent_intra : int;
  mutable sent_inter : int;
  mutable events : int;
}

and client = { c_conn : conn; c_node_write : conn -> string -> unit }

(* ---------- byte-level helpers ---------- *)

let ignore_sigpipe =
  lazy
    (match Sys.os_type with
    | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
    | _ -> ())

let frame body =
  let n = String.length body in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string body 0 b 4 n;
  Bytes.unsafe_to_string b

let put_int64 s pos v = Bytes.set_int64_be s pos (Int64.of_int v)
let get_int64 s pos = Int64.to_int (String.get_int64_be s pos)

let hello_body pid =
  let b = Bytes.create 5 in
  Bytes.set b 0 'H';
  Bytes.set_int32_be b 1 (Int32.of_int pid);
  Bytes.unsafe_to_string b

let data_body ~lc payload =
  let n = String.length payload in
  let b = Bytes.create (9 + n) in
  Bytes.set b 0 'D';
  put_int64 b 1 lc;
  Bytes.blit_string payload 0 b 9 n;
  Bytes.unsafe_to_string b

let request_body ~req payload =
  let n = String.length payload in
  let b = Bytes.create (9 + n) in
  Bytes.set b 0 'Q';
  put_int64 b 1 req;
  Bytes.blit_string payload 0 b 9 n;
  Bytes.unsafe_to_string b

let reply_body ~req ~ok payload =
  let n = String.length payload in
  let b = Bytes.create (10 + n) in
  Bytes.set b 0 'R';
  put_int64 b 1 req;
  Bytes.set b 9 (if ok then '\001' else '\000');
  Bytes.blit_string payload 0 b 10 n;
  Bytes.unsafe_to_string b

(* Blocking exact write; raises on a dead peer. *)
let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* ---------- clocks ---------- *)

let mono_wall t =
  let w = Unix.gettimeofday () in
  if w > t.last_wall then t.last_wall <- w;
  t.last_wall

let now_time t =
  Des.Sim_time.of_us
    (max 0 (int_of_float ((mono_wall t -. t.epoch) *. 1e6)))

(* ---------- construction ---------- *)

let localhost_addrs ~base_port topology =
  Array.init (Topology.n_processes topology) (fun pid ->
      ("127.0.0.1", base_port + pid))

let create ?inject ?(seed = 0) ?epoch ~codec ~topology ~self ~addrs () =
  Lazy.force ignore_sigpipe;
  if Array.length addrs <> Topology.n_processes topology then
    invalid_arg "Tcp.create: addrs must cover every pid";
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let host, port = addrs.(self) in
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen listen_fd 64;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  let epoch = match epoch with Some e -> e | None -> Unix.gettimeofday () in
  {
    self;
    topology;
    addrs;
    codec;
    inject;
    rng = Des.Rng.substream seed (self + 1);
    epoch;
    last_wall = epoch;
    listen_fd = Some listen_fd;
    wake_r;
    wake_w;
    mailbox = Queue.create ();
    mbox_mu = Mutex.create ();
    timers = Des.Event_queue.create ~dummy:ignore;
    conns = [];
    outgoing = Array.make (Topology.n_processes topology) None;
    receiver = (fun ~src:_ _ -> ());
    on_client = (fun _ ~req:_ _ -> ());
    lc = Lclock.initial;
    running = false;
    stopped = false;
    thread = None;
    alive_view = Array.make (Topology.n_processes topology) true;
    crash_subs = [];
    sent_intra = 0;
    sent_inter = 0;
    events = 0;
  }

let set_receiver t f = t.receiver <- f
let set_client_handler t f = t.on_client <- f

(* ---------- mailbox ---------- *)

let post t f =
  Mutex.lock t.mbox_mu;
  let accepted = not t.stopped in
  if accepted then Queue.push f t.mailbox;
  Mutex.unlock t.mbox_mu;
  if accepted then
    try ignore (Unix.write t.wake_w (Bytes.make 1 'x') 0 1) with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EBADF), _, _)
    -> ()
    | Unix.Unix_error (Unix.EPIPE, _, _) -> ()

let drain_mailbox t =
  let thunks = ref [] in
  Mutex.lock t.mbox_mu;
  while not (Queue.is_empty t.mailbox) do
    thunks := Queue.pop t.mailbox :: !thunks
  done;
  Mutex.unlock t.mbox_mu;
  List.iter
    (fun f ->
      t.events <- t.events + 1;
      f ())
    (List.rev !thunks)

(* ---------- outgoing connections / transmit ---------- *)

let close_conn t c =
  if c.open_ then begin
    c.open_ <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns
  end

let dial t dst =
  let host, port = t.addrs.(dst) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    write_all fd (frame (hello_body t.self));
    let c = { fd; buf = Buffer.create 64; peer = Node dst; open_ = true } in
    t.outgoing.(dst) <- Some c;
    Some c
  with Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    t.outgoing.(dst) <- None;
    None

let drop_outgoing t dst =
  match t.outgoing.(dst) with
  | None -> ()
  | Some c ->
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    c.open_ <- false;
    t.outgoing.(dst) <- None

(* Write a framed body to [dst], dialing (or redialing once, to pick up a
   restarted peer) as needed. A destination that cannot be reached is a
   crashed process: the frame is dropped. *)
let transmit t ~dst body =
  let s = frame body in
  let conn_to dst =
    match t.outgoing.(dst) with Some c -> Some c | None -> dial t dst
  in
  match conn_to dst with
  | None -> ()
  | Some c -> (
    try write_all c.fd s
    with Unix.Unix_error _ -> (
      drop_outgoing t dst;
      match dial t dst with
      | None -> ()
      | Some c -> (
        try write_all c.fd s
        with Unix.Unix_error _ -> drop_outgoing t dst)))

(* ---------- timers ---------- *)

let set_timer_at t time f = Des.Event_queue.add t.timers ~time f

let set_timer t ~after f =
  set_timer_at t (Des.Sim_time.add (now_time t) after) f

let cancel_timer t h = Des.Event_queue.cancel t.timers h

let fire_due_timers t =
  let rec go () =
    match Des.Event_queue.peek_time t.timers with
    | Some due when Des.Sim_time.compare due (now_time t) <= 0 -> (
      match Des.Event_queue.pop t.timers with
      | None -> ()
      | Some (_, f) ->
        t.events <- t.events + 1;
        f ();
        go ())
    | _ -> ()
  in
  go ()

(* ---------- the protocol-facing send path ---------- *)

let send_wire t ~dst w =
  if t.running then begin
    let src_group = Topology.group_of t.topology t.self in
    let dst_group = Topology.group_of t.topology dst in
    if src_group = dst_group then t.sent_intra <- t.sent_intra + 1
    else t.sent_inter <- t.sent_inter + 1;
    (* Like the DES envelope: carry the sender's RAW clock; the receiver
       applies the inter-group +1 rule from its own view of the groups. *)
    let body = data_body ~lc:t.lc (t.codec.encode w) in
    match t.inject with
    | None -> transmit t ~dst body
    | Some lat ->
      let delay = Latency.sample lat t.rng ~src_group ~dst_group in
      if Des.Sim_time.equal delay Des.Sim_time.zero then
        transmit t ~dst body
      else ignore (set_timer t ~after:delay (fun () -> transmit t ~dst body))
  end

let services t : 'w Runtime.Services.t =
  {
    Runtime.Services.self = t.self;
    topology = t.topology;
    send = (fun ~dst w -> send_wire t ~dst w);
    send_multi = (fun dsts w -> List.iter (fun dst -> send_wire t ~dst w) dsts);
    now = (fun () -> now_time t);
    set_timer =
      (fun ~after f ->
        set_timer t ~after (fun () -> if t.running then f ()));
    cancel_timer = (fun h -> cancel_timer t h);
    lc = (fun () -> t.lc);
    alive = (fun q -> t.alive_view.(q));
    on_crash_detected =
      (fun ~delay callback ->
        t.crash_subs <- (delay, callback) :: t.crash_subs;
        (* Like the engine's oracle: processes already known dead are
           reported too, [delay] after the subscription. *)
        Array.iteri
          (fun q alive ->
            if not alive then
              ignore
                (set_timer t ~after:delay (fun ()
                     -> if t.running then callback q)))
          t.alive_view);
    (* Nothing perturbs the detectors of a real-socket cluster. *)
    on_fd_perturb = (fun _ -> ());
  }

(* Oracle crash notification, driven by whoever injected the crash (the
   bench harness or the test): mirrors Engine.schedule_crash's fan-out to
   subscribers, [delay] after the announcement. *)
let announce_crash t dead =
  post t (fun () ->
      if t.alive_view.(dead) then begin
        t.alive_view.(dead) <- false;
        List.iter
          (fun (delay, callback) ->
            ignore
              (set_timer t ~after:delay (fun () ->
                   if t.running then callback dead)))
          t.crash_subs
      end)

let announce_recovery t pid = post t (fun () -> t.alive_view.(pid) <- true)

(* ---------- frame dispatch ---------- *)

let handle_body t (c : conn) body =
  if String.length body = 0 then ()
  else
    match body.[0] with
    | 'H' when String.length body >= 5 ->
      let pid = Int32.to_int (String.get_int32_be body 1) in
      c.peer <- Node pid
    | 'C' -> c.peer <- Client
    | 'D' when String.length body >= 9 -> (
      match c.peer with
      | Node src ->
        let lc_raw = get_int64 body 1 in
        let payload = String.sub body 9 (String.length body - 9) in
        let same_group = Topology.same_group t.topology src t.self in
        let carried = Lclock.on_send ~same_group lc_raw in
        t.lc <- Lclock.on_receive t.lc ~carried;
        t.receiver ~src (t.codec.decode payload)
      | Unknown | Client -> ())
    | 'Q' when String.length body >= 9 -> (
      match c.peer with
      | Client | Unknown ->
        c.peer <- Client;
        let req = get_int64 body 1 in
        let payload = String.sub body 9 (String.length body - 9) in
        t.on_client
          {
            c_conn = c;
            c_node_write =
              (fun conn s ->
                if conn.open_ then
                  try write_all conn.fd s
                  with Unix.Unix_error _ -> close_conn t conn);
          }
          ~req payload
      | Node _ -> ())
    | _ -> ()

let reply client ~req ~ok payload =
  client.c_node_write client.c_conn (frame (reply_body ~req ~ok payload))

let feed t c bytes len =
  Buffer.add_subbytes c.buf bytes 0 len;
  let progress = ref true in
  while !progress do
    progress := false;
    let have = Buffer.length c.buf in
    if have >= 4 then begin
      let contents = Buffer.contents c.buf in
      let n = Int32.to_int (String.get_int32_be contents 0) in
      if n >= 0 && have >= 4 + n then begin
        let body = String.sub contents 4 n in
        Buffer.clear c.buf;
        Buffer.add_substring c.buf contents (4 + n) (have - 4 - n);
        t.events <- t.events + 1;
        handle_body t c body;
        progress := true
      end
    end
  done

(* ---------- the event loop ---------- *)

let read_buf_size = 65536

let loop t =
  let scratch = Bytes.create read_buf_size in
  while t.running do
    drain_mailbox t;
    fire_due_timers t;
    let timeout =
      match Des.Event_queue.peek_time t.timers with
      | None -> 0.2
      | Some due ->
        let d = Des.Sim_time.to_us due - Des.Sim_time.to_us (now_time t) in
        if d <= 0 then 0.0 else Float.min 0.2 (float_of_int d /. 1e6)
    in
    let listen_fds =
      match t.listen_fd with Some fd -> [ fd ] | None -> []
    in
    let fds =
      (t.wake_r :: listen_fds) @ List.map (fun c -> c.fd) t.conns
    in
    let readable, _, _ =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = t.wake_r then begin
          try ignore (Unix.read fd scratch 0 read_buf_size)
          with Unix.Unix_error _ -> ()
        end
        else if Some fd = t.listen_fd then begin
          try
            let cfd, _ = Unix.accept fd in
            Unix.setsockopt cfd Unix.TCP_NODELAY true;
            t.conns <-
              { fd = cfd; buf = Buffer.create 256; peer = Unknown;
                open_ = true }
              :: t.conns
          with Unix.Unix_error _ -> ()
        end
        else
          match List.find_opt (fun c -> c.fd = fd) t.conns with
          | None -> ()
          | Some c -> (
            match Unix.read fd scratch 0 read_buf_size with
            | 0 -> close_conn t c
            | n -> feed t c scratch n
            | exception Unix.Unix_error _ -> close_conn t c))
      readable
  done;
  (* Teardown in the loop thread, so no reader races a close. *)
  (match t.listen_fd with
  | Some fd ->
    t.listen_fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.conns;
  t.conns <- [];
  Array.iteri (fun i _ -> drop_outgoing t i) t.outgoing;
  Mutex.lock t.mbox_mu;
  t.stopped <- true;
  Queue.clear t.mailbox;
  Mutex.unlock t.mbox_mu;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ())

let start t =
  if t.thread <> None then invalid_arg "Tcp.start: already started";
  t.running <- true;
  t.thread <- Some (Thread.create loop t)

let stop t =
  match t.thread with
  | None -> ()
  | Some th ->
    post t (fun () -> t.running <- false);
    Thread.join th;
    t.thread <- None

let running t = t.running && not t.stopped
let sent_intra t = t.sent_intra
let sent_inter t = t.sent_inter
let events_processed t = t.events
let lc t = t.lc
let bump_lc t f = t.lc <- f t.lc

(* ---------- synchronous client side ---------- *)

module Client = struct
  type t = {
    fd : Unix.file_descr;
    mutable next_req : int;
    mutable residue : string;
  }

  let connect (host, port) =
    Lazy.force ignore_sigpipe;
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    write_all fd (frame "C");
    { fd; next_req = 0; residue = "" }

  let read_exact t n =
    let b = Bytes.create n in
    let have = String.length t.residue in
    let from_residue = min have n in
    Bytes.blit_string t.residue 0 b 0 from_residue;
    t.residue <-
      String.sub t.residue from_residue (have - from_residue);
    let off = ref from_residue in
    while !off < n do
      match Unix.read t.fd b !off (n - !off) with
      | 0 -> failwith "Tcp.Client: connection closed"
      | k -> off := !off + k
    done;
    Bytes.unsafe_to_string b

  let read_frame t =
    let hdr = read_exact t 4 in
    let n = Int32.to_int (String.get_int32_be hdr 0) in
    read_exact t n

  (* Closed-loop request: write, then block until the matching reply. *)
  let request t payload =
    let req = t.next_req in
    t.next_req <- req + 1;
    write_all t.fd (frame (request_body ~req payload));
    let rec await () =
      let body = read_frame t in
      if String.length body >= 10 && body.[0] = 'R' then begin
        let r = get_int64 body 1 in
        let ok = body.[9] = '\001' in
        let v = String.sub body 10 (String.length body - 10) in
        if r = req then (ok, v) else await ()
      end
      else await ()
    in
    await ()

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end
