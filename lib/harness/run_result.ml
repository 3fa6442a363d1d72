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
  dels : delivery_event array; (* the deliveries, in occurrence order *)
  del_slot : int array; (* delivery -> slot of its id *)
  del_pos : int array; (* delivery -> its position in its pid's sequence *)
  seqs : int array array;
      (* pid -> its deliveries (indexes into [dels]), oldest first *)
  n_slots : int;
  n_cast : int; (* slots [0, n_cast) are the cast ids, in cast order *)
  cast_at : cast_event array; (* cast slot -> first cast event *)
  cast_slot : int array; (* i-th cast event -> its slot *)
  slot_of_id : int Runtime.Msg_id.Tbl.t;
  slot_start : int array;
  by_slot : int array;
      (* the deliveries of slot s, in occurrence order, are
         by_slot.(slot_start.(s)) .. by_slot.(slot_start.(s + 1) - 1) *)
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

(* Every distinct id gets a dense int slot, casts first in cast order,
   then never-cast ids in order of first delivery, so the checkers work
   on int arrays; [slot_of_id] is the only table, probed once per cast
   and per delivery here. [index] memoises the result, so the whole
   checker suite shares a single construction. *)
let build_index t =
  let n = Topology.n_processes t.topology in
  let correct_arr = Array.make n true in
  List.iter
    (fun pid -> if pid >= 0 && pid < n then correct_arr.(pid) <- false)
    t.crashed;
  let n_casts = List.length t.casts in
  let slot_of_id = Runtime.Msg_id.Tbl.create (max 16 n_casts) in
  let cast_at =
    match t.casts with [] -> [||] | c :: _ -> Array.make n_casts c
  in
  let cast_slot = Array.make n_casts 0 in
  let n_slots = ref 0 in
  List.iteri
    (fun i (c : cast_event) ->
      let id = c.msg.Amcast.Msg.id in
      match Runtime.Msg_id.Tbl.find slot_of_id id with
      | s -> cast_slot.(i) <- s
      | exception Not_found ->
        let s = !n_slots in
        Runtime.Msg_id.Tbl.add slot_of_id id s;
        cast_at.(s) <- c;
        cast_slot.(i) <- s;
        n_slots := s + 1)
    t.casts;
  let n_cast = !n_slots in
  let dels = Array.of_list t.deliveries in
  let nd = Array.length dels in
  let del_slot = Array.make nd 0 and del_pos = Array.make nd 0 in
  let counts = Array.make n 0 in
  for k = 0 to nd - 1 do
    let d = dels.(k) in
    let id = d.msg.Amcast.Msg.id in
    (match Runtime.Msg_id.Tbl.find slot_of_id id with
    | s -> del_slot.(k) <- s
    | exception Not_found ->
      let s = !n_slots in
      Runtime.Msg_id.Tbl.add slot_of_id id s;
      del_slot.(k) <- s;
      n_slots := s + 1);
    del_pos.(k) <- counts.(d.pid);
    counts.(d.pid) <- counts.(d.pid) + 1
  done;
  let n_slots = !n_slots in
  let seqs = Array.init n (fun pid -> Array.make counts.(pid) 0) in
  let slot_start = Array.make (n_slots + 1) 0 in
  for k = 0 to nd - 1 do
    seqs.(dels.(k).pid).(del_pos.(k)) <- k;
    let s = del_slot.(k) in
    slot_start.(s + 1) <- slot_start.(s + 1) + 1
  done;
  for s = 1 to n_slots do
    slot_start.(s) <- slot_start.(s) + slot_start.(s - 1)
  done;
  let fill = Array.sub slot_start 0 n_slots in
  let by_slot = Array.make nd 0 in
  for k = 0 to nd - 1 do
    let s = del_slot.(k) in
    by_slot.(fill.(s)) <- k;
    fill.(s) <- fill.(s) + 1
  done;
  {
    correct_arr;
    dels;
    del_slot;
    del_pos;
    seqs;
    n_slots;
    n_cast;
    cast_at;
    cast_slot;
    slot_of_id;
    slot_start;
    by_slot;
  }

let index t =
  match t.index_memo with
  | Some idx -> idx
  | None ->
    let idx = build_index t in
    t.index_memo <- Some idx;
    idx

let slot_id idx s =
  if s < idx.n_cast then idx.cast_at.(s).msg.Amcast.Msg.id
  else idx.dels.(idx.by_slot.(idx.slot_start.(s))).msg.Amcast.Msg.id

let delivered_everywhere_slot t ~mark s =
  let idx = index t in
  (* Whether every correct member of the groups from member [i] of
     [ms] on, then of [gs], delivered [s]. *)
  let rec covered ms i gs =
    if i < Array.length ms then
      let p = ms.(i) in
      ((not idx.correct_arr.(p)) || mark.(p) = s) && covered ms (i + 1) gs
    else
      match gs with
      | [] -> true
      | g :: gs -> covered (Topology.members_array t.topology g) 0 gs
  in
  s < idx.n_cast
  && begin
       for j = idx.slot_start.(s) to idx.slot_start.(s + 1) - 1 do
         mark.(idx.dels.(idx.by_slot.(j)).pid) <- s
       done;
       covered [||] 0 idx.cast_at.(s).msg.Amcast.Msg.dest
     end

let correct t pid = (index t).correct_arr.(pid)

let sequence_of t pid =
  let idx = index t in
  Array.fold_right (fun k acc -> idx.dels.(k).msg :: acc) idx.seqs.(pid) []

let slot_of t id = Runtime.Msg_id.Tbl.find_opt (index t).slot_of_id id

let deliveries_of t id =
  match slot_of t id with
  | None -> []
  | Some s ->
    let idx = index t in
    let acc = ref [] in
    for j = idx.slot_start.(s + 1) - 1 downto idx.slot_start.(s) do
      acc := idx.dels.(idx.by_slot.(j)) :: !acc
    done;
    !acc

let delivered_everywhere_needed t id =
  match slot_of t id with
  | None -> false
  | Some s ->
    delivered_everywhere_slot t
      ~mark:(Array.make (Topology.n_processes t.topology) (-1))
      s

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
