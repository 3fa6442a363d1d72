open Runtime

let name = "scalable"

type wire =
  | Rm of Msg.t Rmcast.Reliable_multicast.msg
  | Stamp of { msg : Msg.t; ts : int }
  | Cons of { id : Msg_id.t; inner : int Consensus.Paxos.msg }

let tag = function
  | Rm m -> Rmcast.Reliable_multicast.tag m
  | Stamp _ -> "scalable.stamp"
  | Cons { inner; _ } -> Consensus.Paxos.tag inner

(* What a pending entry adds to the kernel's: the cross-group consensus
   that picks its final stamp. *)
type agreement = {
  mutable proposed : bool;
  mutable cons : (int, wire) Consensus.Paxos.t option;
      (* per-message consensus across all destination processes *)
}

module Int_map = Map.Make (Int)

type t = {
  services : wire Services.t;
  config : Protocol.Config.t;
  detector : Fd.Detector.t;
  mutable undecided : (unit -> unit) Int_map.t;
      (* the suspicion listeners of the consensus objects that have not
         decided, by creation number: the process subscribes once to
         [detector] and forwards to these in creation order *)
  mutable created : int; (* consensus objects created so far *)
  order : agreement Stamp_order.t;
  ord : agreement Stamp_order.entry Pending_index.t;
  mutable rm : (Msg.t, wire) Rmcast.Reliable_multicast.t option;
}

let rm t = Option.get t.rm

let consensus_for t e =
  let a = Stamp_order.data e in
  match a.cons with
  | Some c -> c
  | None ->
    let m = Stamp_order.msg e in
    let n = t.created in
    t.created <- n + 1;
    (* A decided consensus does nothing on a suspicion change, so its
       listener is dropped at the decision and the object is not kept. *)
    let detector =
      {
        t.detector with
        Fd.Detector.subscribe =
          (fun f -> t.undecided <- Int_map.add n f t.undecided);
      }
    in
    let c =
      Consensus.Paxos.create ~services:t.services
        ~wrap:(fun inner -> Cons { id = m.id; inner })
        ~participants:(Msg.dest_pids t.services.Services.topology m)
        ~detector
        ~timeout:t.config.Protocol.Config.consensus_timeout
          (* The participants here span groups: a coordinator-only vote
             and Decide would alter the protocol's inter-group message
             counts, so votes and decisions go all-to-all (the Figure 1
             pins fail otherwise). *)
        ~all_to_all:true
        ~on_decide:(fun ~instance:_ ts ->
          t.undecided <- Int_map.remove n t.undecided;
          if not (Stamp_order.is_final e) then
            Stamp_order.finalize t.order e ts)
        ()
    in
    a.cons <- Some c;
    c

(* Once every addressee's stamp is in, propose the maximum to the
   cross-group consensus. *)
let maybe_propose t e =
  let a = Stamp_order.data e in
  match Stamp_order.complete e with
  | Some max_ts when not a.proposed ->
    a.proposed <- true;
    Consensus.Paxos.propose (consensus_for t e) ~instance:1 max_ts
  | Some _ | None -> ()

let on_data t (m : Msg.t) =
  if Stamp_order.fresh t.order m.id then begin
    let e =
      Stamp_order.admit t.order ~ord:t.ord m { proposed = false; cons = None }
    in
    List.iter
      (fun q ->
        if q <> t.services.Services.self then
          t.services.Services.send ~dst:q
            (Stamp { msg = m; ts = Stamp_order.own_ts e }))
      (Msg.dest_pids t.services.Services.topology m);
    maybe_propose t e
  end

let cast t (m : Msg.t) =
  Rmcast.Reliable_multicast.rmcast (rm t) ~id:m.id
    ~dest:(Msg.dest_pids t.services.Services.topology m)
    m

let on_receive t ~src w =
  match w with
  | Rm rmsg -> Rmcast.Reliable_multicast.handle (rm t) ~src rmsg
  | Stamp { msg; ts } ->
    (* The stamp carries its message, so it is never early: merge first
       (the stamp may admit [msg] here), then record it. *)
    Stamp_order.merge t.order ts;
    on_data t msg;
    Option.iter (maybe_propose t)
      (Stamp_order.stamp t.order msg.id ~from:src ts)
  | Cons { id; inner } -> (
    match Stamp_order.find t.order id with
    | Some e -> Consensus.Paxos.handle (consensus_for t e) ~src inner
    | None -> () (* already delivered: the endpoint has done its work *))

let create ~services ~config ~deliver =
  let detector =
    Fd.Detector.oracle ~delay:config.Protocol.Config.oracle_delay services
  in
  let t =
    {
      services;
      config;
      detector;
      undecided = Int_map.empty;
      created = 0;
      order =
        Stamp_order.create ~topology:services.Services.topology
          ~self:services.Services.self ~deliver;
      ord = Pending_index.create ();
      rm = None;
    }
  in
  detector.Fd.Detector.subscribe (fun () ->
      Int_map.iter (fun _ f -> f ()) t.undecided);
  t.rm <-
    Some
      (Rmcast.Reliable_multicast.create ~services
         ~wrap:(fun m -> Rm m)
         ~oracle_delay:config.Protocol.Config.oracle_delay
         ~on_deliver:(fun ~id:_ ~origin:_ ~dest:_ m -> on_data t m)
         ());
  t

let pending_count t = Stamp_order.pending_count t.order

let stats t =
  [
    ("rm.entries", Rmcast.Reliable_multicast.retained_entries (rm t));
    ("rm.tombstones", Rmcast.Reliable_multicast.reclaimed_entries (rm t));
    ("pending", pending_count t);
  ]
