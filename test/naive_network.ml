(* The scan-based twin of [Net.Network] for differential tests: the
   network without a per-link index. In-flight messages sit in a
   free-list slab, and every link control dissolves all fan-outs, scans
   the whole slab for the link's messages and sorts them by scheduler
   handle. Only the observable behaviour matters: which messages arrive,
   when, in which order, and how many a drop removes. The slab's slot
   order stays observable (fan-outs dissolve in slot order, and a drop
   predicate runs in slot order), so the free list hands slots out as the
   real one does. No transmission cost. *)

open Des
open Net

type 'w slot =
  | Free
  | Single of {
      src : int;
      dst : int;
      payload : 'w;
      handle : Scheduler.handle;
    }
  | Multi of {
      src : int;
      payload : 'w;
      arrivals : Sim_time.t array;
      dsts : int array; (* sorted by arrival, stable *)
      mutable pos : int;
      mutable handle : Scheduler.handle;
    }

type 'w t = {
  sched : Scheduler.t;
  topology : Topology.t;
  latency : Latency.t;
  rng : Rng.t;
  deliver : src:int -> dst:int -> 'w -> unit;
  mutable slots : 'w slot array;
  mutable free : int list; (* top first; fresh slots come out lowest first *)
  n_groups : int;
  holds : Sim_time.t array;
  scales : float array;
  mutable explode_fanout : bool;
  mutable sent_total : int;
  mutable sent_inter : int;
  mutable sent_intra : int;
}

let create ~sched ~topology ~latency ~rng ~deliver =
  let g = Topology.n_groups topology in
  {
    sched;
    topology;
    latency;
    rng;
    deliver;
    slots = [||];
    free = [];
    n_groups = g;
    holds = Array.make (g * g) Sim_time.zero;
    scales = Array.make (g * g) 1.0;
    explode_fanout = false;
    sent_total = 0;
    sent_inter = 0;
    sent_intra = 0;
  }

let link t ~src_group ~dst_group = (src_group * t.n_groups) + dst_group

let release t i =
  t.slots.(i) <- Free;
  t.free <- i :: t.free

let acquire t =
  if t.free = [] then begin
    let cap = Array.length t.slots in
    let ncap = if cap = 0 then 64 else cap * 2 in
    t.slots <-
      Array.init ncap (fun i -> if i < cap then t.slots.(i) else Free);
    t.free <- List.init (ncap - cap) (fun k -> cap + k)
  end;
  match t.free with
  | i :: rest ->
    t.free <- rest;
    i
  | [] -> assert false

let rec fire t i () =
  match t.slots.(i) with
  | Free -> ()
  | Single s ->
    release t i;
    t.deliver ~src:s.src ~dst:s.dst s.payload
  | Multi m ->
    let dst = m.dsts.(m.pos) in
    m.pos <- m.pos + 1;
    if m.pos < Array.length m.dsts then
      m.handle <- at t m.dsts.(m.pos) m.arrivals.(m.pos) i
    else release t i;
    t.deliver ~src:m.src ~dst m.payload

and at t dst time i =
  Scheduler.at_tagged t.sched (Scheduler.Tag.deliver dst) time (fire t i)

let schedule_delivery t ~src ~dst ~arrival payload =
  let i = acquire t in
  t.slots.(i) <- Single { src; dst; payload; handle = at t dst arrival i }

let sample_delay t ~src_group ~dst_group =
  let delay = Latency.sample t.latency t.rng ~src_group ~dst_group in
  let s = t.scales.(link t ~src_group ~dst_group) in
  if s = 1.0 then delay
  else
    Sim_time.of_us
      (Int.max 0 (int_of_float (s *. float_of_int (Sim_time.to_us delay))))

let arrival t ~src_group ~dst =
  let dst_group = Topology.group_of t.topology dst in
  t.sent_total <- t.sent_total + 1;
  if src_group = dst_group then t.sent_intra <- t.sent_intra + 1
  else t.sent_inter <- t.sent_inter + 1;
  let delay = sample_delay t ~src_group ~dst_group in
  Sim_time.max
    (Sim_time.add (Scheduler.now t.sched) delay)
    t.holds.(link t ~src_group ~dst_group)

let send_multi t ~src ~dsts payload =
  let src_group = Topology.group_of t.topology src in
  match dsts with
  | _ :: _ :: _ when not t.explode_fanout ->
    let i = acquire t in
    let admitted =
      List.map (fun dst -> (arrival t ~src_group ~dst, dst)) dsts
      |> List.stable_sort (fun (a, _) (b, _) -> Sim_time.compare a b)
    in
    let arrivals = Array.of_list (List.map fst admitted)
    and dsts = Array.of_list (List.map snd admitted) in
    let handle = at t dsts.(0) arrivals.(0) i in
    t.slots.(i) <- Multi { src; payload; arrivals; dsts; pos = 0; handle }
  | _ ->
    List.iter
      (fun dst ->
        schedule_delivery t ~src ~dst ~arrival:(arrival t ~src_group ~dst)
          payload)
      dsts

let explode t =
  let multis = ref [] in
  Array.iteri
    (fun i s -> match s with Multi _ -> multis := i :: !multis | _ -> ())
    t.slots;
  List.iter
    (fun i ->
      match t.slots.(i) with
      | Multi m ->
        let rest =
          List.init (Array.length m.dsts - m.pos) (fun j ->
              (m.dsts.(m.pos + j), m.arrivals.(m.pos + j)))
        in
        Scheduler.cancel t.sched m.handle;
        release t i;
        List.iter
          (fun (dst, arrival) ->
            schedule_delivery t ~src:m.src ~dst ~arrival m.payload)
          rest
      | Free | Single _ -> assert false)
    (List.sort Int.compare !multis)

let unschedule t i =
  match t.slots.(i) with
  | Single s ->
    Scheduler.cancel t.sched s.handle;
    release t i;
    (s.src, s.dst, s.payload)
  | Free | Multi _ -> assert false

let inflight_on_link t ~src_group ~dst_group =
  explode t;
  let acc = ref [] in
  Array.iteri
    (fun i s ->
      match s with
      | Single m
        when Topology.group_of t.topology m.src = src_group
             && Topology.group_of t.topology m.dst = dst_group ->
        acc := (m.handle, i) :: !acc
      | _ -> ())
    t.slots;
  List.map snd (List.sort compare !acc)

let hold t ~src_group ~dst_group ~until =
  let l = link t ~src_group ~dst_group in
  t.holds.(l) <- Sim_time.max t.holds.(l) until;
  List.iter
    (fun i ->
      let src, dst, payload = unschedule t i in
      schedule_delivery t ~src ~dst ~arrival:until payload)
    (inflight_on_link t ~src_group ~dst_group)

let partition t ~src_group ~dst_group =
  hold t ~src_group ~dst_group ~until:Sim_time.infinity

let heal t ~src_group ~dst_group =
  let l = link t ~src_group ~dst_group in
  if not (Sim_time.equal t.holds.(l) Sim_time.zero) then begin
    t.holds.(l) <- Sim_time.zero;
    List.iter
      (fun i ->
        let src, dst, payload = unschedule t i in
        let delay = sample_delay t ~src_group ~dst_group in
        schedule_delivery t ~src ~dst
          ~arrival:(Sim_time.add (Scheduler.now t.sched) delay)
          payload)
      (inflight_on_link t ~src_group ~dst_group)
  end

let partition_groups t side_a side_b =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          partition t ~src_group:a ~dst_group:b;
          partition t ~src_group:b ~dst_group:a)
        side_b)
    side_a

let heal_all t =
  for src_group = 0 to t.n_groups - 1 do
    for dst_group = 0 to t.n_groups - 1 do
      heal t ~src_group ~dst_group
    done
  done

let drop_inflight t pred =
  explode t;
  let victims = ref [] in
  Array.iteri
    (fun i s ->
      match s with
      | Single m when pred ~src:m.src ~dst:m.dst -> victims := i :: !victims
      | _ -> ())
    t.slots;
  List.iter (fun i -> ignore (unschedule t i)) !victims;
  List.length !victims

let latency_scale t ~src_group ~dst_group scale =
  t.scales.(link t ~src_group ~dst_group) <- scale

let set_explode_fanout t b = t.explode_fanout <- b
let sent_total t = t.sent_total
let sent_inter_group t = t.sent_inter
let sent_intra_group t = t.sent_intra

let in_flight t =
  Array.fold_left
    (fun n s ->
      match s with
      | Free -> n
      | Single _ -> n + 1
      | Multi m -> n + Array.length m.dsts - m.pos)
    0 t.slots
