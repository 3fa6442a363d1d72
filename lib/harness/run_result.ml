open Net

type cast_event = {
  msg : Amcast.Msg.t;
  origin : Topology.pid;
  at : Des.Sim_time.t;
  lc : Lclock.t;
}

type delivery_event = {
  pid : Topology.pid;
  msg : Amcast.Msg.t;
  at : Des.Sim_time.t;
  lc : Lclock.t;
}

type index = {
  correct_arr : bool array; (* pid -> not crashed *)
  seqs : Amcast.Msg.t array array; (* pid -> delivery sequence, oldest first *)
  pos : int Runtime.Msg_id.Tbl.t array;
      (* pid -> (id -> position of pid's first delivery of id). Keyed
         per-pid rather than per-id so the index costs O(deliveries),
         not O(distinct ids * n) — the latter is ~1 GB at the scale
         cells (100k casts * 1000 processes). *)
  casts_by_id : cast_event Runtime.Msg_id.Tbl.t; (* first cast wins *)
  deliveries_by_id : delivery_event list Runtime.Msg_id.Tbl.t Lazy.t;
      (* id -> its deliveries, in occurrence order; forced by
         [deliveries_of] only, as the checkers never need it *)
}

type t = {
  topology : Topology.t;
  casts : cast_event list;
  deliveries : delivery_event list;
  crashed : Topology.pid list;
  trace : Runtime.Trace.t;
  inter_group_msgs : int;
  intra_group_msgs : int;
  end_time : Des.Sim_time.t;
  drained : bool;
  events_executed : int;
  mutable index_memo : index option;
}

let make ~topology ~casts ~deliveries ~crashed ~trace ~inter_group_msgs
    ~intra_group_msgs ~end_time ~drained ~events_executed () =
  {
    topology;
    casts;
    deliveries;
    crashed;
    trace;
    inter_group_msgs;
    intra_group_msgs;
    end_time;
    drained;
    events_executed;
    index_memo = None;
  }

(* One pass over casts + deliveries builds every per-run lookup the
   checkers need; [index] memoises it so the whole checker suite shares a
   single construction. *)
let build_index t =
  let n = Topology.n_processes t.topology in
  let correct_arr = Array.make n true in
  List.iter
    (fun pid -> if pid >= 0 && pid < n then correct_arr.(pid) <- false)
    t.crashed;
  let casts_by_id = Runtime.Msg_id.Tbl.create 64 in
  List.iter
    (fun (c : cast_event) ->
      let id = c.msg.Amcast.Msg.id in
      if not (Runtime.Msg_id.Tbl.mem casts_by_id id) then
        Runtime.Msg_id.Tbl.replace casts_by_id id c)
    t.casts;
  let counts = Array.make n 0 in
  List.iter (fun (d : delivery_event) -> counts.(d.pid) <- counts.(d.pid) + 1)
    t.deliveries;
  let seqs =
    Array.init n (fun pid ->
        Array.make counts.(pid)
          (Amcast.Msg.make
             ~id:(Runtime.Msg_id.make ~origin:0 ~seq:0)
             ~dest:[ 0 ] ""))
  in
  let fill = Array.make n 0 in
  let pos =
    Array.init n (fun pid ->
        Runtime.Msg_id.Tbl.create (max 16 counts.(pid)))
  in
  List.iter
    (fun (d : delivery_event) ->
      let id = d.msg.Amcast.Msg.id in
      let i = fill.(d.pid) in
      seqs.(d.pid).(i) <- d.msg;
      fill.(d.pid) <- i + 1;
      if not (Runtime.Msg_id.Tbl.mem pos.(d.pid) id) then
        Runtime.Msg_id.Tbl.replace pos.(d.pid) id i)
    t.deliveries;
  let deliveries_by_id =
    lazy
      (let tbl =
         Runtime.Msg_id.Tbl.create (Runtime.Msg_id.Tbl.length casts_by_id)
       in
       (* Consing from the newest delivery backwards leaves each list
          oldest first. *)
       List.iter
         (fun (d : delivery_event) ->
           let id = d.msg.Amcast.Msg.id in
           let older =
             Option.value ~default:[] (Runtime.Msg_id.Tbl.find_opt tbl id)
           in
           Runtime.Msg_id.Tbl.replace tbl id (d :: older))
         (List.rev t.deliveries);
       tbl)
  in
  { correct_arr; seqs; pos; casts_by_id; deliveries_by_id }

let index t =
  match t.index_memo with
  | Some idx -> idx
  | None ->
    let idx = build_index t in
    t.index_memo <- Some idx;
    idx

let correct t pid = (index t).correct_arr.(pid)

let sequence_of t pid = Array.to_list (index t).seqs.(pid)

let cast_of t id = Runtime.Msg_id.Tbl.find_opt (index t).casts_by_id id

let deliveries_of t id =
  Option.value ~default:[]
    (Runtime.Msg_id.Tbl.find_opt (Lazy.force (index t).deliveries_by_id) id)

let delivered_by t id pid = Runtime.Msg_id.Tbl.mem (index t).pos.(pid) id

let delivered_everywhere_needed t id =
  let idx = index t in
  match Runtime.Msg_id.Tbl.find_opt idx.casts_by_id id with
  | None -> false
  | Some c ->
    let addressees = Amcast.Msg.dest_pids t.topology c.msg in
    List.for_all
      (fun p -> (not idx.correct_arr.(p)) || delivered_by t id p)
      addressees

let pp_summary ppf t =
  Fmt.pf ppf
    "@[<v>casts: %d@ deliveries: %d@ crashed: [%a]@ inter-group msgs: %d@ \
     intra-group msgs: %d@ end: %a (%s)@]"
    (List.length t.casts)
    (List.length t.deliveries)
    Fmt.(list ~sep:(any ",") int)
    t.crashed t.inter_group_msgs t.intra_group_msgs Des.Sim_time.pp
    t.end_time
    (if t.drained then "quiescent" else "horizon reached")
