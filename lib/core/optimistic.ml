open Net
open Runtime

let name = "optimistic"

type wire =
  | Data of { msg : Msg.t; sent_at : int } (* microseconds of virtual time *)
  | Order of { index : int; id : Msg_id.t } (* the sequencer's final order *)

let tag = function Data _ -> "opt.data" | Order _ -> "opt.order"

type slot = {
  msg : Msg.t;
  sent_at : int;
  mutable opt_delivered : bool;
}

type t = {
  services : wire Services.t;
  deliver : Msg.t -> unit;
  window : Des.Sim_time.t;
  sequencer : Topology.pid;
  slots : slot Msg_id.Tbl.t;
  mutable opt_log : Msg_id.t list; (* newest first *)
  mutable final_log : Msg_id.t list; (* newest first *)
  mutable seq_index : int; (* sequencer-side: next index to assign *)
  mutable next_final : int; (* next index to deliver finally *)
  order : (int, Msg_id.t) Hashtbl.t;
}

let am_sequencer t = t.services.Services.self = t.sequencer

(* Optimistic delivery: messages whose compensation window has elapsed, in
   (send timestamp, id) order. The window absorbs latency differences so
   that concurrent messages come out in the same spontaneous order
   everywhere (usually). *)
let opt_flush t =
  let now_us = Des.Sim_time.to_us (t.services.Services.now ()) in
  let window = Des.Sim_time.to_us t.window in
  let ready =
    Msg_id.Tbl.fold
      (fun _ s acc ->
        if (not s.opt_delivered) && s.sent_at + window <= now_us then s :: acc
        else acc)
      t.slots []
    |> List.sort (fun a b ->
           Msg.compare_ts_id (a.sent_at, a.msg) (b.sent_at, b.msg))
  in
  List.iter
    (fun s ->
      s.opt_delivered <- true;
      t.opt_log <- s.msg.id :: t.opt_log;
      if am_sequencer t then begin
        (* The sequencer's optimistic order is the final order. *)
        let index = t.seq_index in
        t.seq_index <- index + 1;
        Hashtbl.replace t.order index s.msg.id;
        Services.send_all t.services
          (List.filter
             (fun q -> q <> t.sequencer)
             (Topology.all_pids t.services.Services.topology))
          (Order { index; id = s.msg.id })
      end)
    ready

let rec final_flush t =
  match Hashtbl.find_opt t.order t.next_final with
  | None -> ()
  | Some id -> (
    match Msg_id.Tbl.find_opt t.slots id with
    | Some s ->
      t.next_final <- t.next_final + 1;
      t.final_log <- id :: t.final_log;
      t.deliver s.msg;
      final_flush t
    | None -> () (* payload not here yet *))

let on_data t (m : Msg.t) ~sent_at =
  if not (Msg_id.Tbl.mem t.slots m.id) then begin
    Msg_id.Tbl.replace t.slots m.id
      { msg = m; sent_at; opt_delivered = false };
    (* Wake up when this message's compensation window elapses. *)
    let now_us = Des.Sim_time.to_us (t.services.Services.now ()) in
    let fire_in =
      max 0 (sent_at + Des.Sim_time.to_us t.window - now_us)
    in
    ignore
      (t.services.Services.set_timer ~after:(Des.Sim_time.of_us fire_in)
         (fun () ->
           opt_flush t;
           final_flush t));
    final_flush t
  end

let cast t (m : Msg.t) =
  let sent_at = Des.Sim_time.to_us (t.services.Services.now ()) in
  Services.send_all t.services
    (List.filter
       (fun q -> q <> t.services.Services.self)
       (Topology.all_pids t.services.Services.topology))
    (Data { msg = m; sent_at });
  on_data t m ~sent_at

let on_receive t ~src:_ w =
  match w with
  | Data { msg; sent_at } -> on_data t msg ~sent_at
  | Order { index; id } ->
    Hashtbl.replace t.order index id;
    final_flush t

let create ~services ~config ~deliver =
  {
    services;
    deliver;
    window = config.Protocol.Config.opt_window;
    sequencer = List.hd (Topology.members services.Services.topology 0);
    slots = Msg_id.Tbl.create 32;
    opt_log = [];
    final_log = [];
    seq_index = 0;
    next_final = 0;
    order = Hashtbl.create 32;
  }

(* Pairwise inversions between the optimistic and the final local orders:
   the mistake count [12] tries to minimise via the compensation window. *)
let optimistic_mistakes t =
  let opt = Array.of_list (List.rev t.opt_log) in
  let pos = Msg_id.Tbl.create 32 in
  Array.iteri (fun i id -> Msg_id.Tbl.replace pos id i) opt;
  let final = List.rev t.final_log in
  let rec count acc = function
    | [] | [ _ ] -> acc
    | a :: (b :: _ as rest) ->
      let inverted =
        match (Msg_id.Tbl.find_opt pos a, Msg_id.Tbl.find_opt pos b) with
        | Some ia, Some ib -> ia > ib
        | _ -> false
      in
      count (if inverted then acc + 1 else acc) rest
  in
  count 0 final

let stats _ = []
