type t = {
  id : Runtime.Msg_id.t;
  dest : Net.Topology.gid list;
  payload : string;
}

let make ~id ~dest payload =
  let dest = List.sort_uniq Int.compare dest in
  if dest = [] then invalid_arg "Msg.make: empty destination set";
  { id; dest; payload }

let dest_pids topology t = Net.Topology.pids_of_groups topology t.dest
let is_single_group t = match t.dest with [ _ ] -> true | _ -> false
let addressed_to_group t g = List.mem g t.dest

let addressed_to_pid topology t p =
  addressed_to_group t (Net.Topology.group_of topology p)

let compare_id a b = Runtime.Msg_id.compare a.id b.id
let equal_id a b = compare_id a b = 0

let pp ppf t =
  Fmt.pf ppf "%a->[%a]" Runtime.Msg_id.pp t.id
    Fmt.(list ~sep:(any ",") int)
    t.dest

let compare_ts_id (ts1, m1) (ts2, m2) =
  let c = Int.compare ts1 ts2 in
  if c <> 0 then c else compare_id m1 m2
