open Runtime

let row_of_entry = function
  | Trace.Send { time; src; dst; tag; inter_group; _ } ->
    (time, src, Fmt.str "%s>%d%s" tag dst (if inter_group then "*" else ""))
  | Trace.Receive { time; src; dst; _ } -> (time, dst, Fmt.str "recv<%d" src)
  | Trace.Cast { time; pid; id; _ } ->
    (time, pid, Fmt.str "CAST %s" (Msg_id.to_string id))
  | Trace.Deliver { time; pid; id; _ } ->
    (time, pid, Fmt.str "DLVR %s" (Msg_id.to_string id))
  | Trace.Crash { time; pid } -> (time, pid, "CRASH")

let timeline ?(max_rows = 200) ~topology trace =
  let n = Net.Topology.n_processes topology in
  let rows = List.map row_of_entry (Trace.entries trace) in
  let truncated = List.length rows > max_rows in
  let rows = List.filteri (fun i _ -> i < max_rows) rows in
  let col_width =
    List.fold_left
      (fun acc (_, _, text) -> max acc (String.length text))
      6 rows
    + 1
  in
  let buf = Buffer.create 4096 in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  Buffer.add_string buf (pad "time" 10);
  for pid = 0 to n - 1 do
    Buffer.add_string buf
      (pad (Fmt.str "| p%d(g%d)" pid (Net.Topology.group_of topology pid))
         col_width)
  done;
  Buffer.add_char buf '\n';
  List.iter
    (fun (time, pid, text) ->
      Buffer.add_string buf (pad (Des.Sim_time.to_string time) 10);
      for p = 0 to n - 1 do
        Buffer.add_string buf
          (pad (if p = pid then "| " ^ text else "|") col_width)
      done;
      Buffer.add_char buf '\n')
    rows;
  if truncated then Buffer.add_string buf "... (truncated)\n";
  Buffer.contents buf

let pp ?max_rows ~topology ppf trace =
  Fmt.string ppf (timeline ?max_rows ~topology trace)
