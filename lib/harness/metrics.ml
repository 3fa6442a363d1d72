open Runtime

(* Per-slot measurements over the run's index: a cast slot's first cast
   event against its deliveries, [None] when nobody delivered it. *)
let fold_deliveries (idx : Run_result.index) s f init =
  let acc = ref init in
  for j = idx.slot_start.(s) to idx.slot_start.(s + 1) - 1 do
    acc := f !acc idx.dels.(idx.by_slot.(j))
  done;
  !acc

let slot_degree (idx : Run_result.index) s =
  if idx.slot_start.(s + 1) = idx.slot_start.(s) then None
  else
    let top =
      fold_deliveries idx s
        (fun acc (d : Run_result.delivery_event) -> Int.max acc d.lc)
        min_int
    in
    (* [Lclock.latency_degree] of the slot's delivery clocks *)
    Some (top - idx.cast_at.(s).lc)

let slot_latency (idx : Run_result.index) s =
  if idx.slot_start.(s + 1) = idx.slot_start.(s) then None
  else
    let last =
      fold_deliveries idx s
        (fun acc (d : Run_result.delivery_event) -> Des.Sim_time.max acc d.at)
        Des.Sim_time.zero
    in
    Some (Des.Sim_time.of_us (Des.Sim_time.diff last idx.cast_at.(s).at))

let of_cast_slot f (r : Run_result.t) id =
  let idx = Run_result.index r in
  match Msg_id.Tbl.find_opt idx.slot_of_id id with
  | Some s when s < idx.n_cast -> f idx s
  | _ -> None

let latency_degree = of_cast_slot slot_degree

(* Every cast event, in cast order, through its slot. *)
let per_cast f (r : Run_result.t) =
  let idx = Run_result.index r in
  List.mapi
    (fun i (c : Run_result.cast_event) ->
      (c.msg.Amcast.Msg.id, f idx idx.cast_slot.(i)))
    r.casts

let latency_degrees = per_cast slot_degree

let fold_degrees f init r =
  List.fold_left
    (fun acc (_, d) -> match d with None -> acc | Some d -> f acc d)
    init (latency_degrees r)

let max_latency_degree r =
  fold_degrees (fun acc d -> Some (match acc with None -> d | Some a -> max a d)) None r

let min_latency_degree r =
  fold_degrees (fun acc d -> Some (match acc with None -> d | Some a -> min a d)) None r

let delivery_latency = of_cast_slot slot_latency

let delivery_latencies_ms r =
  List.filter_map
    (fun (_, l) -> Option.map Des.Sim_time.to_ms_float l)
    (per_cast slot_latency r)

let mean_delivery_latency_ms r =
  match delivery_latencies_ms r with
  | [] -> None
  | lats ->
    let sum = List.fold_left ( +. ) 0. lats in
    Some (sum /. float_of_int (List.length lats))

let delivery_latency_percentile_ms r p =
  Stats.percentile p (delivery_latencies_ms r)

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
  let idx = Run_result.index r in
  let n = ref 0 in
  for s = 0 to idx.n_slots - 1 do
    if idx.slot_start.(s + 1) > idx.slot_start.(s) then incr n
  done;
  !n
