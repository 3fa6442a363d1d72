open Net
open Runtime

type 'a entry = {
  msg : Msg.t;
  own_ts : int;
  data : 'a;
  ord : 'a entry Pending_index.t;
  stamps : int Slab.Row.t;
      (* per-stamper timestamps indexed by pid; pooled, released at
         delivery. Only addressees ever stamp, and each once, so a count
         equal to [n_addr] means every stamp is in. *)
  n_addr : int;
  mutable stamp_max : int;
  mutable final : int option;
  mutable handle : Pending_index.handle;
      (* slot in [ord]; keyed by own_ts until finalised, then by final *)
}

type 'a t = {
  topology : Topology.t;
  self : Topology.pid;
  deliver : Msg.t -> unit;
  mutable clock : int;
  pending : 'a entry Msg_id.Tbl.t;
  delivered : unit Msg_id.Tbl.t;
  early_stamps : (Topology.pid * int) list Msg_id.Tbl.t;
      (* stamps that outran their message (triangle inequality does not
         hold under jitter or asymmetric latency matrices) *)
  stamp_pool : int Slab.Row.pool; (* stamp rows, width = n_processes *)
}

let create ~topology ~self ~deliver =
  {
    topology;
    self;
    deliver;
    clock = 0;
    pending = Msg_id.Tbl.create 32;
    delivered = Msg_id.Tbl.create 32;
    early_stamps = Msg_id.Tbl.create 8;
    stamp_pool =
      Slab.Row.pool ~width:(Topology.n_processes topology) ~default:0;
  }

let fresh t id =
  (not (Msg_id.Tbl.mem t.pending id)) && not (Msg_id.Tbl.mem t.delivered id)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let merge t ts = t.clock <- max t.clock ts

let add_stamp e q ts =
  if not (Slab.Row.mem e.stamps q) then begin
    Slab.Row.set e.stamps q ts;
    if ts > e.stamp_max then e.stamp_max <- ts
  end

let admit t ~ord (m : Msg.t) data =
  let own_ts = tick t in
  let e =
    {
      msg = m;
      own_ts;
      data;
      ord;
      stamps = Slab.Row.acquire t.stamp_pool;
      n_addr =
        List.fold_left
          (fun n g -> n + Topology.group_size t.topology g)
          0 m.dest;
      stamp_max = 0;
      final = None;
      handle = -1;
    }
  in
  e.handle <- Pending_index.add ord ~ts:own_ts ~id:m.id e;
  add_stamp e t.self own_ts;
  (match Msg_id.Tbl.find_opt t.early_stamps m.id with
  | Some stamps ->
    List.iter (fun (q, ts) -> add_stamp e q ts) stamps;
    Msg_id.Tbl.remove t.early_stamps m.id
  | None -> ());
  Msg_id.Tbl.replace t.pending m.id e;
  e

let stamp t id ~from ts =
  merge t ts;
  match Msg_id.Tbl.find_opt t.pending id with
  | Some e ->
    add_stamp e from ts;
    Some e
  | None ->
    if not (Msg_id.Tbl.mem t.delivered id) then begin
      let prev =
        Option.value ~default:[] (Msg_id.Tbl.find_opt t.early_stamps id)
      in
      Msg_id.Tbl.replace t.early_stamps id ((from, ts) :: prev)
    end;
    None

let complete e =
  if e.final = None && Slab.Row.count e.stamps = e.n_addr then
    Some e.stamp_max
  else None

let deliver_pending t e =
  Slab.Row.release t.stamp_pool e.stamps;
  Msg_id.Tbl.remove t.pending e.msg.id;
  Msg_id.Tbl.replace t.delivered e.msg.id ();
  t.deliver e.msg

(* Deliver every finalised message whose (final, id) is minimal: no other
   finalised message precedes it, and no unfinalised message could still
   get a smaller final stamp (its final is at least its own stamp, the
   key it sits under). Both conditions are one question about the root:
   a finalised root is deliverable, an unfinalised root blocks. *)
let rec drain t ord =
  match Pending_index.min_elt ord with
  | Some (_, _, e) when e.final <> None ->
    Pending_index.drop_top ord;
    deliver_pending t e;
    drain t ord
  | Some _ | None -> ()

let finalize t e f =
  e.final <- Some f;
  e.handle <- Pending_index.reposition e.ord e.handle ~ts:f ~id:e.msg.id e;
  merge t f;
  drain t e.ord

let bypass t (m : Msg.t) =
  Msg_id.Tbl.replace t.delivered m.id ();
  t.deliver m

let find t id = Msg_id.Tbl.find_opt t.pending id
let msg e = e.msg
let own_ts e = e.own_ts
let data e = e.data
let is_final e = e.final <> None
let pending_count t = Msg_id.Tbl.length t.pending
