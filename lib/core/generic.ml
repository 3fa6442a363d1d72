open Runtime

let name = "generic"

type wire =
  | Data of Msg.t
  | Stamp of { id : Msg_id.t; ts : int }

let tag = function Data _ -> "generic.data" | Stamp _ -> "generic.stamp"

(* Entries carry their conflict class, "" under Total / Scan mode. *)
type entry = string Stamp_order.entry

(* How the pending set is ordered, decided once from the conflict
   relation's shape. *)
type ord_state =
  | Classes of (string, entry Pending_index.t) Hashtbl.t
      (* partition relations (Total, Keyed): one independent (ts, id)
         frontier per conflict class, each drained by the kernel's root
         test; Total has the single class "" and degenerates to plain
         Skeen *)
  | Scan of entry Pending_index.t
      (* bare Commute predicate: one index ordered by the final-stamp
         lower bound, delivery by pairwise conflict scan *)

type t = {
  services : wire Services.t;
  conflict : Conflict.t;
  order : string Stamp_order.t;
  ord : ord_state;
  mutable bypassed : int; (* solo messages delivered at Data arrival *)
  mutable ordered : int; (* messages that went through stamping *)
}

(* Pairwise-scan delivery test for bare Commute relations: deliver the
   first (in (lower-bound, id) order) finalised message that no earlier
   pending message conflicts with; repeat until none qualifies. An
   earlier conflicting message blocks whether finalised (it must go
   first) or not (it could still finalise below). *)
let scan_delivery_test t idx =
  let rec pass () =
    let entries = Pending_index.to_sorted_list idx in
    let rec find before = function
      | [] -> None
      | (_, _, p) :: rest ->
        let m = Stamp_order.msg p in
        if
          Stamp_order.is_final p
          && not
               (List.exists
                  (fun q -> Conflict.conflicts t.conflict q m)
                  before)
        then Some p
        else find (m :: before) rest
    in
    match find [] entries with
    | Some p ->
      Stamp_order.deliver t.order p;
      pass ()
    | None -> ()
  in
  pass ()

let index_for t (cls : string) =
  match t.ord with
  | Scan idx -> idx
  | Classes classes -> (
    match Hashtbl.find_opt classes cls with
    | Some idx -> idx
    | None ->
      let idx = Pending_index.create () in
      Hashtbl.replace classes cls idx;
      idx)

(* Finalising drains the entry's own index: the whole per-class test, and
   the head of the scan (a finalised root has nothing before it). *)
let settle t e =
  match Stamp_order.complete e with
  | None -> ()
  | Some f -> (
    Stamp_order.finalize t.order e f;
    match t.ord with
    | Classes classes -> (
      let cls = Stamp_order.data e in
      match Hashtbl.find_opt classes cls with
      | Some idx when Pending_index.is_empty idx -> Hashtbl.remove classes cls
      | Some _ | None -> ())
    | Scan idx -> scan_delivery_test t idx)

let on_data t (m : Msg.t) =
  if Stamp_order.fresh t.order m.id then
    if Conflict.solo t.conflict m then begin
      (* Conflicts with nothing: deliverable the moment it arrives, no
         stamps, no clock traffic — reliable-multicast cost. *)
      t.bypassed <- t.bypassed + 1;
      Stamp_order.bypass t.order m
    end
    else begin
      t.ordered <- t.ordered + 1;
      let cls =
        match Conflict.class_of t.conflict m with
        | Some (Some c) -> c
        | Some None ->
          (* solo under a partition relation — handled above *)
          assert false
        | None -> "" (* Scan mode: classes unused *)
      in
      let e = Stamp_order.admit t.order ~ord:(index_for t cls) m cls in
      List.iter
        (fun q ->
          if q <> t.services.Services.self then
            t.services.Services.send ~dst:q
              (Stamp { id = m.id; ts = Stamp_order.own_ts e }))
        (Msg.dest_pids t.services.Services.topology m);
      settle t e
    end

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
  let conflict = config.Protocol.Config.conflict in
  let ord =
    match conflict with
    | Conflict.Commute _ -> Scan (Pending_index.create ())
    | Conflict.Total | Conflict.Keyed _ -> Classes (Hashtbl.create 16)
  in
  {
    services;
    conflict;
    order =
      Stamp_order.create ~topology:services.Services.topology
        ~self:services.Services.self ~deliver;
    ord;
    bypassed = 0;
    ordered = 0;
  }

let stats t =
  [ ("generic.bypassed", t.bypassed); ("generic.ordered", t.ordered) ]
