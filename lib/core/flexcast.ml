(* FlexCast-style overlay-routed atomic multicast (see flexcast.mli).

   The delivery machinery (clock, pending table, stamp rows, the
   (final, id) index and its root test) is Skeen's {!Stamp_order} kernel:
   the two protocols must produce identical per-pid sequences on a clique
   overlay, and the differential suite asserts they do. What is flexcast's
   own is the message path: Data and Stamp traffic is routed along the
   overlay, with interior relays timestamping Data in transit. *)

open Net
open Runtime

let name = "flexcast"

type wire =
  | Data of { msg : Msg.t; path_ts : int }
      (* Final hop of dissemination: fans out to an addressee group's
         members. [path_ts] folds the clocks of the interior relays the
         message crossed; 0 when the route had none (always on a
         clique). *)
  | Fwd of { msg : Msg.t; path_ts : int; targets : Topology.gid list }
      (* Interior hop: [targets] are the destination groups this branch
         of the routing tree is responsible for. *)
  | Stamp of { id : Msg_id.t; ts : int; from : Topology.pid }
      (* [from] is the stamping addressee — the transport source is a
         relay when the stamp was routed. *)
  | Fwd_stamp of {
      id : Msg_id.t;
      ts : int;
      from : Topology.pid;
      targets : Topology.gid list;
    }

let tag = function
  | Data _ -> "flexcast.data"
  | Fwd _ -> "flexcast.fwd"
  | Stamp _ -> "flexcast.stamp"
  | Fwd_stamp _ -> "flexcast.fwdstamp"

type t = {
  services : wire Services.t;
  overlay : Overlay.t;
  my_group : Topology.gid;
  order : unit Stamp_order.t;
  ord : unit Stamp_order.entry Pending_index.t;
  mutable relayed : int; (* Fwd/Fwd_stamp hops this process forwarded *)
}

let relay_of t g = (Topology.members_array t.services.Services.topology g).(0)

let adjacent t g =
  g = t.my_group || Overlay.next_hop t.overlay ~src:t.my_group ~dst:g = g

(* Split a set of destination groups by how they are reached from here:
   direct groups (own or adjacent — their members get the payload
   straight away, in ascending order, which on a clique is exactly
   Skeen's pid-ascending fan-out) and forwarding buckets keyed by next
   hop, ascending. *)
let routes t dests =
  let dests = List.sort_uniq Int.compare dests in
  let direct = List.filter (adjacent t) dests in
  let buckets = ref [] in
  List.iter
    (fun d ->
      if not (adjacent t d) then begin
        let nh = Overlay.next_hop t.overlay ~src:t.my_group ~dst:d in
        match List.assoc_opt nh !buckets with
        | Some b -> b := d :: !b
        | None -> buckets := !buckets @ [ (nh, ref [ d ]) ]
      end)
    dests;
  ( direct,
    List.map (fun (nh, b) -> (nh, List.rev !b)) !buckets
    |> List.sort (fun (a, _) (b, _) -> compare a b) )

let settle t e =
  match Stamp_order.complete e with
  | Some f -> Stamp_order.finalize t.order e f
  | None -> ()

(* Send my stamp for [m] to every other addressee: directly to the
   members of own/adjacent destination groups (ascending — Skeen's
   fan-out order on a clique), routed via the next hop's relay
   otherwise. *)
let send_stamps t (m : Msg.t) ts =
  let direct, buckets = routes t m.dest in
  List.iter
    (fun g ->
      Topology.iter_members t.services.Services.topology g (fun q ->
          if q <> t.services.Services.self then
            t.services.Services.send ~dst:q
              (Stamp { id = m.id; ts; from = t.services.Services.self })))
    direct;
  List.iter
    (fun (nh, targets) ->
      t.services.Services.send ~dst:(relay_of t nh)
        (Fwd_stamp
           { id = m.id; ts; from = t.services.Services.self; targets }))
    buckets

let on_data t (m : Msg.t) ~path_ts =
  if Stamp_order.fresh t.order m.id then begin
    (* Raising the clock to [path_ts] before the tick keeps the stamp
       above every interior clock crossed on the way here; with
       [path_ts = 0] (clique) this is Skeen's plain tick. *)
    Stamp_order.merge t.order path_ts;
    let e = Stamp_order.admit t.order ~ord:t.ord m () in
    send_stamps t m (Stamp_order.own_ts e);
    settle t e
  end

(* Fan a routed payload out from this group: deliver locally when own
   group is a target, send Data to adjacent targets' members, forward
   the rest. Interior relays timestamp the message in transit — the
   clock bump folded into [path_ts]. *)
let forward_data t (m : Msg.t) ~path_ts targets =
  let direct, buckets = routes t targets in
  List.iter
    (fun g ->
      if g = t.my_group then
        Topology.iter_members t.services.Services.topology g (fun q ->
            if q <> t.services.Services.self then
              t.services.Services.send ~dst:q (Data { msg = m; path_ts }))
      else
        Topology.iter_members t.services.Services.topology g (fun q ->
            t.services.Services.send ~dst:q (Data { msg = m; path_ts })))
    direct;
  List.iter
    (fun (nh, targets) ->
      t.relayed <- t.relayed + 1;
      t.services.Services.send ~dst:(relay_of t nh)
        (Fwd { msg = m; path_ts; targets }))
    buckets;
  if List.mem t.my_group direct then on_data t m ~path_ts

let cast t (m : Msg.t) = forward_data t m ~path_ts:0 m.dest

(* An interior relay receiving a Fwd: timestamp the transit, then fan
   out/forward. Only reached on non-clique overlays. *)
let on_fwd t (m : Msg.t) ~path_ts targets =
  let path_ts = max path_ts (Stamp_order.tick t.order) in
  forward_data t m ~path_ts targets

let on_stamp t ~from ~ts id =
  Option.iter (settle t) (Stamp_order.stamp t.order id ~from ts)

(* Stamps are forwarded unmodified: every addressee must fold the same
   stamp values into its final maximum, whatever route they took. *)
let on_fwd_stamp t ~from ~ts id targets =
  let direct, buckets = routes t targets in
  List.iter
    (fun g ->
      Topology.iter_members t.services.Services.topology g (fun q ->
          if q <> t.services.Services.self then
            t.services.Services.send ~dst:q (Stamp { id; ts; from })))
    direct;
  List.iter
    (fun (nh, targets) ->
      t.relayed <- t.relayed + 1;
      t.services.Services.send ~dst:(relay_of t nh)
        (Fwd_stamp { id; ts; from; targets }))
    buckets;
  if List.mem t.my_group direct then on_stamp t ~from ~ts id

let on_receive t ~src:_ w =
  match w with
  | Data { msg; path_ts } -> on_data t msg ~path_ts
  | Fwd { msg; path_ts; targets } -> on_fwd t msg ~path_ts targets
  | Stamp { id; ts; from } -> on_stamp t ~from ~ts id
  | Fwd_stamp { id; ts; from; targets } -> on_fwd_stamp t ~from ~ts id targets

let create ~services ~config ~deliver =
  let topo = services.Services.topology in
  let overlay =
    match config.Protocol.Config.overlay with
    | Some o ->
      Overlay.check_topology o topo;
      o
    | None -> Overlay.clique ~groups:(Topology.n_groups topo)
  in
  {
    services;
    overlay;
    my_group = Services.my_group services;
    order =
      Stamp_order.create ~topology:topo ~self:services.Services.self ~deliver;
    ord = Pending_index.create ();
    relayed = 0;
  }

let stats t = if t.relayed = 0 then [] else [ ("relayed_hops", t.relayed) ]
