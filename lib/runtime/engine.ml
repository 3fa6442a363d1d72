open Des
open Net

type 'w node = { on_receive : src:Topology.pid -> 'w -> unit }

type drop_spec =
  | Keep_inflight
  | Lose_all_inflight
  | Lose_to of Topology.pid list
  | Lose_each_with_probability of float

type crash_subscription = {
  subscriber : Topology.pid;
  delay : Sim_time.t;
  callback : Topology.pid -> unit;
}

(* [lc] is the sender's RAW clock at send time; the carried value (raw, or
   raw+1 across groups) is computed per destination at delivery. This lets
   one envelope serve a whole fan-out even when it mixes intra- and
   inter-group destinations. *)
type 'w envelope = { data : 'w; lc : Lclock.t; env : int }

type 'w t = {
  sched : Scheduler.t;
  topology : Topology.t;
  trace : Trace.t;
  tag : 'w -> string;
  mutable network : 'w envelope Network.t option; (* set in create *)
  mutable next_env : int;
  nodes : 'w node option array;
  lcs : Lclock.t array;
  crashed : bool array;
  mutable crash_order : Topology.pid list; (* newest first *)
  fault_rng : Rng.t;
  mutable crash_subs : crash_subscription list;
  mutable fd_subs : (Topology.pid * (float -> unit)) list;
      (* registration order; failure detectors subscribe to timed timeout
         perturbation (the nemesis Fd_storm hook) *)
}

let net t =
  match t.network with
  | Some n -> n
  | None -> assert false

let handle_delivery t ~src ~dst { data; lc; env } =
  (* A pid without a spawned node consumes nothing: advancing its Lamport
     clock or logging a Receive for it would fabricate causal events at a
     process that does not exist in the deployment. *)
  if not t.crashed.(dst) then
    match t.nodes.(dst) with
    | None -> ()
    | Some node ->
      let same_group = Topology.same_group t.topology src dst in
      let carried = Lclock.on_send ~same_group lc in
      t.lcs.(dst) <- Lclock.on_receive t.lcs.(dst) ~carried;
      if Trace.enabled t.trace then
        Trace.record t.trace
          (Receive
             { time = Scheduler.now t.sched; src; dst; lc = t.lcs.(dst); env });
      node.on_receive ~src data

let create ?(seed = 0) ?(latency = Latency.wan_default)
    ?(record_trace = true) ~tag topology =
  let sched = Scheduler.create () in
  let root = Rng.create seed in
  let n = Topology.n_processes topology in
  (* n draws dropped: they fix where the network and fault streams
     start, so every seed replays the runs pinned for it. *)
  for _ = 1 to n do
    ignore (Rng.int64 root)
  done;
  let net_rng = Rng.split root in
  let fault_rng = Rng.split root in
  let t =
    {
      sched;
      topology;
      trace = Trace.create ~enabled:record_trace ();
      tag;
      network = None;
      nodes = Array.make n None;
      next_env = 0;
      lcs = Array.make n Lclock.initial;
      crashed = Array.make n false;
      crash_order = [];
      fault_rng;
      crash_subs = [];
      fd_subs = [];
    }
  in
  let network =
    Network.create ~sched ~topology ~latency ~rng:net_rng
      ~deliver:(fun ~src ~dst payload -> handle_delivery t ~src ~dst payload)
  in
  t.network <- Some network;
  t

(* Records one Send entry per destination of a fan-out, all sharing its
   envelope. A top-level function, so recording allocates no closure. *)
let rec record_sends t ~pid ~time ~tag ~raw ~env = function
  | [] -> ()
  | dst :: rest ->
    let same_group = Topology.same_group t.topology pid dst in
    (* The carried value is LC+1 across groups (rule 2), but the sender's
       own clock does not advance: only receives move a clock forward.
       This makes a fan-out to d remote processes one causal hop, not d —
       the reading under which the paper's R-MCast has latency degree 1
       and Theorem 5.1's concurrent bundle exchange costs a single
       inter-group delay. *)
    Trace.record t.trace
      (Send
         {
           time;
           src = pid;
           dst;
           inter_group = not same_group;
           lc = Lclock.on_send ~same_group raw;
           tag;
           env;
         });
    record_sends t ~pid ~time ~tag ~raw ~env rest

(* The DES implementation of the capability record: the closures below are
   the whole protocol-visible behaviour of the simulator. *)
let services t pid =
  (* The one send path: a point-to-point send is a one-destination
     fan-out. *)
  let send_multi dsts payload =
    if (not t.crashed.(pid)) && not (List.is_empty dsts) then begin
      let raw = t.lcs.(pid) in
      (* One envelope (and one trace [env]) for the whole fan-out: the
         Send entries share it, which is faithful — the fan-out is one
         causal event at the sender. *)
      let env = t.next_env in
      t.next_env <- env + 1;
      if Trace.enabled t.trace then
        record_sends t ~pid ~time:(Scheduler.now t.sched) ~tag:(t.tag payload)
          ~raw ~env dsts;
      Network.send_multi (net t) ~src:pid ~dsts { data = payload; lc = raw; env }
    end
  in
  let send ~dst payload = send_multi [ dst ] payload in
  let set_timer ~after f =
    Scheduler.after_tagged t.sched (Scheduler.Tag.timer pid) after (fun () ->
        if not t.crashed.(pid) then f ())
  in
  let on_crash_detected ~delay callback =
    t.crash_subs <- { subscriber = pid; delay; callback } :: t.crash_subs;
    (* Already-crashed processes are reported too: find them via the flag
       array (their crash entries are in the trace, but scanning flags is
       enough since detection delay counts from now in that case). The
       subscriber guard is checked at fire time, like [set_timer]'s: a
       detector on a process that has itself died must stay silent. *)
    Array.iteri
      (fun q dead ->
        if dead then
          ignore
            (Scheduler.after_tagged t.sched (Scheduler.Tag.timer pid) delay
               (fun () -> if not t.crashed.(pid) then callback q)))
      t.crashed
  in
  let on_fd_perturb f = t.fd_subs <- t.fd_subs @ [ (pid, f) ] in
  {
    Services.self = pid;
    topology = t.topology;
    send;
    send_multi;
    now = (fun () -> Scheduler.now t.sched);
    set_timer;
    cancel_timer = (fun h -> Scheduler.cancel t.sched h);
    lc = (fun () -> t.lcs.(pid));
    alive = (fun q -> not t.crashed.(q));
    on_crash_detected;
    on_fd_perturb;
  }

let record_cast t pid id =
  t.lcs.(pid) <- Lclock.on_local t.lcs.(pid);
  if Trace.enabled t.trace then
    Trace.record t.trace
      (Cast { time = Scheduler.now t.sched; pid; id; lc = t.lcs.(pid) })

let record_deliver t pid id =
  t.lcs.(pid) <- Lclock.on_local t.lcs.(pid);
  if Trace.enabled t.trace then
    Trace.record t.trace
      (Deliver { time = Scheduler.now t.sched; pid; id; lc = t.lcs.(pid) })

let spawn t pid make =
  (match t.nodes.(pid) with
  | Some _ -> invalid_arg "Engine.spawn: node already exists"
  | None -> ());
  let state, node = make (services t pid) in
  t.nodes.(pid) <- Some node;
  state

let schedule_crash ?(drop = Keep_inflight) t ~at pid =
  ignore
    (Scheduler.at_tagged t.sched (Scheduler.Tag.crash pid) at (fun () ->
         if not t.crashed.(pid) then begin
           t.crashed.(pid) <- true;
           t.crash_order <- pid :: t.crash_order;
           Trace.record t.trace
             (Crash { time = Scheduler.now t.sched; pid });
           let dropped =
             match drop with
             | Keep_inflight -> 0
             | Lose_all_inflight ->
               Network.drop_inflight (net t) (fun ~src ~dst:_ -> src = pid)
             | Lose_to victims ->
               Network.drop_inflight (net t) (fun ~src ~dst ->
                   src = pid && List.mem dst victims)
             | Lose_each_with_probability p ->
               Network.drop_inflight (net t) (fun ~src ~dst:_ ->
                   src = pid && Rng.float t.fault_rng 1.0 < p)
           in
           ignore dropped;
           List.iter
             (fun { subscriber; delay; callback } ->
               (* Guard at fire time, not scheduling time: the subscriber
                  may itself crash between this crash and its detection
                  delay elapsing, and a dead process must not react. *)
               ignore
                 (Scheduler.after_tagged t.sched
                    (Scheduler.Tag.timer subscriber) delay (fun () ->
                      if not t.crashed.(subscriber) then callback pid)))
             t.crash_subs
         end))

let perturb_fd t scale =
  if scale <= 0. then invalid_arg "Engine.perturb_fd: scale must be > 0";
  List.iter
    (fun (pid, f) -> if not t.crashed.(pid) then f scale)
    t.fd_subs

let at ?(tag = Scheduler.Tag.generic) t time f =
  ignore (Scheduler.at_tagged t.sched tag time f)
let run ?until ?max_steps t = Scheduler.run ?until ?max_steps t.sched
let now t = Scheduler.now t.sched
let alive t pid = not t.crashed.(pid)
let crashed t = List.rev t.crash_order
let lc t pid = t.lcs.(pid)
let trace t = t.trace
let topology t = t.topology
let network t = net t
let scheduler t = t.sched
