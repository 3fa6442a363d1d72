open Net
open Runtime

let name = "detmerge"

type wire =
  | Pub of { msg : Msg.t; ts : int }
  | Null of { ts : int }

let tag = function Pub _ -> "dm.pub" | Null _ -> "dm.null"

type t = {
  services : wire Services.t;
  deliver : Msg.t -> unit;
  null_period : Des.Sim_time.t;
  mutable own_ts : int; (* publisher stream position *)
  last_ts : int array; (* per-publisher stream watermark *)
  ord : Msg.t Pending_index.t; (* buffered, ordered by (publisher ts, id) *)
  buffered : Pending_index.handle Msg_id.Tbl.t; (* membership + handles *)
  delivered : unit Msg_id.Tbl.t;
}

let watermark t = Array.fold_left min max_int t.last_ts

(* Deliver buffered messages up to the watermark, in (ts, publisher)
   order. Any future message from publisher q carries ts > last_ts.(q) >=
   watermark, so nothing can sneak in below. The index pops them in key
   order directly, so a flush costs O(log buffered) per delivered message
   instead of a fold over the whole buffer. *)
let merge_flush t =
  let wm = watermark t in
  let rec loop () =
    match Pending_index.min_elt t.ord with
    | Some (ts, _, m) when ts <= wm ->
      Pending_index.drop_top t.ord;
      Msg_id.Tbl.remove t.buffered m.id;
      if not (Msg_id.Tbl.mem t.delivered m.id) then begin
        Msg_id.Tbl.replace t.delivered m.id ();
        if
          Msg.addressed_to_pid t.services.Services.topology m
            t.services.Services.self
        then t.deliver m
      end;
      loop ()
    | Some _ | None -> ()
  in
  loop ()

let buffer_msg t ~ts (m : Msg.t) =
  match Msg_id.Tbl.find_opt t.buffered m.id with
  | Some h ->
    Msg_id.Tbl.replace t.buffered m.id
      (Pending_index.reposition t.ord h ~ts ~id:m.id m)
  | None ->
    Msg_id.Tbl.replace t.buffered m.id
      (Pending_index.add t.ord ~ts ~id:m.id m)

let advance t ~publisher ~ts =
  if ts > t.last_ts.(publisher) then begin
    t.last_ts.(publisher) <- ts;
    merge_flush t
  end

(* Stream stamps are derived from (virtual) time, kept strictly monotone
   per publisher: [1]'s merge needs the streams to advance at comparable
   rates, which physical-time stamps with a known null rate provide. With
   per-publisher event counters instead, a slow publisher would stall the
   watermark arbitrarily. *)
let next_ts t =
  let now_us = Des.Sim_time.to_us (t.services.Services.now ()) in
  t.own_ts <- max (t.own_ts + 1) now_us;
  t.own_ts

let cast t (m : Msg.t) =
  let ts = next_ts t in
  ignore ts;
  let self = t.services.Services.self in
  (* The payload goes to the addressees only; everyone else learns that
     the stream advanced from the next null. *)
  List.iter
    (fun q ->
      if q <> self then
        t.services.Services.send ~dst:q (Pub { msg = m; ts = t.own_ts }))
    (Msg.dest_pids t.services.Services.topology m);
  buffer_msg t ~ts:t.own_ts m;
  advance t ~publisher:self ~ts:t.own_ts

let on_receive t ~src w =
  match w with
  | Pub { msg; ts } ->
    if
      (not (Msg_id.Tbl.mem t.buffered msg.id))
      && not (Msg_id.Tbl.mem t.delivered msg.id)
    then buffer_msg t ~ts msg;
    advance t ~publisher:src ~ts
  | Null { ts } -> advance t ~publisher:src ~ts

let rec null_tick t =
  let ts = next_ts t in
  let self = t.services.Services.self in
  List.iter
    (fun q ->
      if q <> self then t.services.Services.send ~dst:q (Null { ts }))
    (Topology.all_pids t.services.Services.topology);
  advance t ~publisher:self ~ts;
  ignore
    (t.services.Services.set_timer ~after:t.null_period (fun () ->
         null_tick t))

let create ~services ~config ~deliver =
  let t =
    {
      services;
      deliver;
      null_period = config.Protocol.Config.null_period;
      own_ts = 0;
      last_ts =
        Array.make (Topology.n_processes services.Services.topology) 0;
      ord = Pending_index.create ();
      buffered = Msg_id.Tbl.create 32;
      delivered = Msg_id.Tbl.create 32;
    }
  in
  null_tick t;
  t

let stats _ = []
