open Des

type msg = Ping of { seq : int }

type peer = {
  mutable deadline_timer : int option;
  mutable timeout : Sim_time.t;
  mutable suspected : bool;
}

type 'w t = {
  services : 'w Runtime.Services.t;
  wrap : msg -> 'w;
  peers : (Net.Topology.pid, peer) Hashtbl.t;
  period : Sim_time.t;
  max_timeout : Sim_time.t;
  mutable seq : int;
  mutable listeners : (unit -> unit) list;
  mutable stopped : bool;
  mutable beat_timer : int option;
}

let notify t = List.iter (fun f -> f ()) t.listeners

let rec arm_deadline t _pid peer =
  peer.deadline_timer <-
    Some
      (t.services.set_timer ~after:peer.timeout (fun () ->
           peer.deadline_timer <- None;
           if (not t.stopped) && not peer.suspected then begin
             peer.suspected <- true;
             notify t
           end))

and handle t ~src (Ping _) =
  if not t.stopped then
    match Hashtbl.find_opt t.peers src with
    | None -> ()
    | Some peer ->
      (match peer.deadline_timer with
      | Some h -> t.services.cancel_timer h
      | None -> ());
      if peer.suspected then begin
        (* False suspicion: revoke and back off, the ◇P adaptation rule.
           The doubling is capped at [max_timeout] — unbounded back-off
           would let an FD storm (repeated false suspicions) push the
           timeout past any run horizon, turning the detector inert. *)
        peer.suspected <- false;
        peer.timeout <-
          Sim_time.min t.max_timeout (Sim_time.add peer.timeout peer.timeout);
        notify t
      end;
      arm_deadline t src peer

let rec beat t =
  if not t.stopped then begin
    t.seq <- t.seq + 1;
    let ping = t.wrap (Ping { seq = t.seq }) in
    Hashtbl.iter (fun pid _ -> t.services.send ~dst:pid ping) t.peers;
    t.beat_timer <- Some (t.services.set_timer ~after:t.period (fun () -> beat t))
  end

(* Timed FD perturbation (the nemesis Fd_storm hook): rescale every peer's
   current timeout and re-arm any pending deadline under the new value, so
   a shrink takes effect immediately rather than at the next heartbeat.
   Clamped to [1us, max_timeout]; the ◇P back-off rule then walks a shrunk
   timeout back up as the resulting false suspicions are revoked. *)
let perturb t scale =
  if not t.stopped then
    Hashtbl.iter
      (fun pid peer ->
        let scaled =
          Sim_time.of_us
            (max 1 (int_of_float (scale *. float_of_int (Sim_time.to_us peer.timeout))))
        in
        peer.timeout <- Sim_time.min t.max_timeout scaled;
        match peer.deadline_timer with
        | Some h ->
          t.services.cancel_timer h;
          arm_deadline t pid peer
        | None -> ())
      t.peers

let create ?max_timeout ~services ~wrap ~monitored ~period ~timeout () =
  let max_timeout =
    match max_timeout with
    | Some m -> m
    | None -> Sim_time.of_us (32 * Sim_time.to_us timeout)
  in
  let t =
    {
      services;
      wrap;
      peers = Hashtbl.create 8;
      period;
      max_timeout;
      seq = 0;
      listeners = [];
      stopped = false;
      beat_timer = None;
    }
  in
  List.iter
    (fun pid ->
      if pid <> services.Runtime.Services.self then begin
        let peer = { deadline_timer = None; timeout; suspected = false } in
        Hashtbl.replace t.peers pid peer;
        arm_deadline t pid peer
      end)
    monitored;
  services.Runtime.Services.on_fd_perturb (fun scale -> perturb t scale);
  beat t;
  t

let detector t =
  {
    Detector.suspects =
      (fun q ->
        match Hashtbl.find_opt t.peers q with
        | None -> false
        | Some peer -> peer.suspected);
    subscribe = (fun f -> t.listeners <- t.listeners @ [ f ]);
  }

let stop t =
  t.stopped <- true;
  (match t.beat_timer with
  | Some h -> t.services.cancel_timer h
  | None -> ());
  Hashtbl.iter
    (fun _ peer ->
      match peer.deadline_timer with
      | Some h ->
        t.services.cancel_timer h;
        peer.deadline_timer <- None
      | None -> ())
    t.peers
