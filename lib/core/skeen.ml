open Runtime

let name = "skeen"

type wire =
  | Data of Msg.t
  | Stamp of { id : Msg_id.t; ts : int }

let tag = function Data _ -> "skeen.data" | Stamp _ -> "skeen.stamp"

type t = {
  services : wire Services.t;
  order : unit Stamp_order.t;
  ord : unit Stamp_order.entry Pending_index.t;
}

let settle t e =
  match Stamp_order.complete e with
  | Some f -> Stamp_order.finalize t.order e f
  | None -> ()

let on_data t (m : Msg.t) =
  if Stamp_order.fresh t.order m.id then begin
    let e = Stamp_order.admit t.order ~ord:t.ord m () in
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
  (* The caster participates directly when it is itself an addressee. *)
  if Msg.addressed_to_pid t.services.Services.topology m t.services.Services.self
  then on_data t m

let on_receive t ~src w =
  match w with
  | Data m -> on_data t m
  | Stamp { id; ts } ->
    Option.iter (settle t) (Stamp_order.stamp t.order id ~from:src ts)

let create ~services ~config:_ ~deliver =
  {
    services;
    order =
      Stamp_order.create ~topology:services.Services.topology
        ~self:services.Services.self ~deliver;
    ord = Pending_index.create ();
  }

let stats _ = []
