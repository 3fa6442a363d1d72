open Runtime

let name = "generic"

type wire =
  | Data of Msg.t
  | Stamp of { id : Msg_id.t; ts : int }

let tag = function Data _ -> "generic.data" | Stamp _ -> "generic.stamp"

(* Entries carry their conflict class, "" under Total. *)
type entry = string Stamp_order.entry

type t = {
  services : wire Services.t;
  conflict : Conflict.t;
  order : string Stamp_order.t;
  classes : (string, entry Pending_index.t) Hashtbl.t;
      (* one independent (ts, id) frontier per conflict class, each
         drained by the kernel's root test; Total has the single class ""
         and degenerates to plain Skeen *)
  mutable bypassed : int; (* solo messages delivered at Data arrival *)
  mutable ordered : int; (* messages that went through stamping *)
}

let index_for t cls =
  match Hashtbl.find_opt t.classes cls with
  | Some idx -> idx
  | None ->
    let idx = Pending_index.create () in
    Hashtbl.replace t.classes cls idx;
    idx

(* Finalising drains the entry's own class; an emptied class is
   dropped. *)
let settle t e =
  match Stamp_order.complete e with
  | None -> ()
  | Some f -> (
    Stamp_order.finalize t.order e f;
    let cls = Stamp_order.data e in
    match Hashtbl.find_opt t.classes cls with
    | Some idx when Pending_index.is_empty idx -> Hashtbl.remove t.classes cls
    | Some _ | None -> ())

let on_data t (m : Msg.t) =
  if Stamp_order.fresh t.order m.id then
    match Conflict.class_of t.conflict m with
    | None ->
      (* Conflicts with nothing: deliverable the moment it arrives, no
         stamps, no clock traffic — reliable-multicast cost. *)
      t.bypassed <- t.bypassed + 1;
      Stamp_order.bypass t.order m
    | Some cls ->
      t.ordered <- t.ordered + 1;
      let e = Stamp_order.admit t.order ~ord:(index_for t cls) m cls in
      List.iter
        (fun q ->
          if q <> t.services.Services.self then
            t.services.Services.send ~dst:q
              (Stamp { id = m.id; ts = Stamp_order.own_ts e }))
        (Msg.dest_pids t.services.Services.topology m);
      settle t e

let cast t (m : Msg.t) =
  let addressees = Msg.dest_pids t.services.Services.topology m in
  List.iter
    (fun q ->
      if q <> t.services.Services.self then
        t.services.Services.send ~dst:q (Data m))
    addressees;
  if Msg.addressed_to_pid t.services.Services.topology m t.services.Services.self
  then on_data t m

let on_receive t ~src w =
  match w with
  | Data m -> on_data t m
  | Stamp { id; ts } ->
    Option.iter (settle t) (Stamp_order.stamp t.order id ~from:src ts)

let create ~services ~config ~deliver =
  {
    services;
    conflict = config.Protocol.Config.conflict;
    order =
      Stamp_order.create ~topology:services.Services.topology
        ~self:services.Services.self ~deliver;
    classes = Hashtbl.create 16;
    bypassed = 0;
    ordered = 0;
  }

let stats t =
  [ ("generic.bypassed", t.bypassed); ("generic.ordered", t.ordered) ]
