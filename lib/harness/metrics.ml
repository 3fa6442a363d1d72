open Runtime

let latency_degree (r : Run_result.t) id =
  match Run_result.cast_of r id with
  | None -> None
  | Some c ->
    let lcs =
      List.map
        (fun (d : Run_result.delivery_event) -> d.lc)
        (Run_result.deliveries_of r id)
    in
    Lclock.latency_degree ~cast:c.lc ~deliveries:lcs

let latency_degrees (r : Run_result.t) =
  List.map
    (fun (c : Run_result.cast_event) ->
      (c.msg.Amcast.Msg.id, latency_degree r c.msg.Amcast.Msg.id))
    r.casts

let fold_degrees f init r =
  List.fold_left
    (fun acc (_, d) -> match d with None -> acc | Some d -> f acc d)
    init (latency_degrees r)

let max_latency_degree r =
  fold_degrees (fun acc d -> Some (match acc with None -> d | Some a -> max a d)) None r

let min_latency_degree r =
  fold_degrees (fun acc d -> Some (match acc with None -> d | Some a -> min a d)) None r

let delivery_latency (r : Run_result.t) id =
  match Run_result.cast_of r id with
  | None -> None
  | Some c -> (
    match Run_result.deliveries_of r id with
    | [] -> None
    | ds ->
      let last =
        List.fold_left
          (fun acc (d : Run_result.delivery_event) ->
            Des.Sim_time.max acc d.at)
          Des.Sim_time.zero ds
      in
      Some (Des.Sim_time.of_us (Des.Sim_time.diff last c.at)))

let mean_delivery_latency_ms (r : Run_result.t) =
  let lats =
    List.filter_map
      (fun (c : Run_result.cast_event) ->
        delivery_latency r c.msg.Amcast.Msg.id)
      r.casts
  in
  match lats with
  | [] -> None
  | _ ->
    let sum =
      List.fold_left (fun acc l -> acc +. Des.Sim_time.to_ms_float l) 0. lats
    in
    Some (sum /. float_of_int (List.length lats))

let delivery_latencies_ms (r : Run_result.t) =
  List.filter_map
    (fun (c : Run_result.cast_event) ->
      Option.map Des.Sim_time.to_ms_float
        (delivery_latency r c.msg.Amcast.Msg.id))
    r.casts

let delivery_latency_percentile_ms r p =
  Stats.percentile p (delivery_latencies_ms r)

let inter_group_messages (r : Run_result.t) = r.inter_group_msgs
let intra_group_messages (r : Run_result.t) = r.intra_group_msgs

let messages_by_tag (r : Run_result.t) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | Trace.Send { inter_group = true; tag; _ } ->
        Hashtbl.replace tbl tag
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl tag))
      | _ -> ())
    (Trace.entries r.trace);
  Hashtbl.fold (fun tag n acc -> (tag, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let last_send_time (r : Run_result.t) =
  List.fold_left
    (fun acc e ->
      match e with
      | Trace.Send { time; _ } -> (
        match acc with
        | None -> Some time
        | Some t -> Some (Des.Sim_time.max t time))
      | _ -> acc)
    None
    (Trace.entries r.trace)

let sends_after (r : Run_result.t) cutoff =
  List.fold_left
    (fun acc e ->
      match e with
      | Trace.Send { time; _ } when Des.Sim_time.compare time cutoff > 0 ->
        acc + 1
      | _ -> acc)
    0
    (Trace.entries r.trace)

let delivered_count (r : Run_result.t) =
  List.fold_left
    (fun acc (d : Run_result.delivery_event) ->
      Msg_id.Set.add d.msg.Amcast.Msg.id acc)
    Msg_id.Set.empty r.deliveries
  |> Msg_id.Set.cardinal
