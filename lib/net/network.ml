open Des

(* One in-flight slot. A [Single] holds one message to one destination. A
   [Multi] keeps a fan-out of two or more destinations: per-destination
   arrivals are pre-sampled at send time and walked by a single scheduler
   event that re-arms itself for the next destination at pop time. This
   is the [send_multi] fast lane — a broadcast costs one event in the
   queue at any instant instead of one per destination. Its [arrivals] and
   [dsts] are the slot's own rows ([row_at]/[row_dst] below), reused by
   every fan-out the slot carries, so only the first [len] entries are
   this fan-out's. *)
type 'w slot =
  | Free
  | Single of {
      src : Topology.pid;
      dst : Topology.pid;
      payload : 'w;
      handle : Scheduler.handle;
    }
  | Multi of {
      src : Topology.pid;
      payload : 'w;
      arrivals : Sim_time.t array;
      dsts : Topology.pid array;
          (* sorted by arrival, stable, so equal arrivals keep the order a
             per-destination send loop would deliver them in *)
      len : int;
      mutable pos : int;
      mutable handle : Scheduler.handle;
    }

(* In-flight messages live in a free-list slab instead of a Hashtbl: [send]
   is the hottest call in the simulator and the slab turns its bookkeeping
   into a few array writes (acquire a slot index, store the record, link
   it). Invariant: [slots.(i) = Free] iff [i] is on the free stack
   ([free.(0 .. free_top-1)]).

   Every [Single] slot is also on its link's intrusive list, appended when
   it is scheduled. Each schedule takes a fresh scheduler handle larger
   than every earlier one, so a link's list is in handle order, and the
   link controls ([hold]/[heal]/[partition]) walk their own link's
   messages in scheduling order without a slab scan or a sort. [Multi]
   slots span several links and stay off the lists; [live_multi] counts
   them so [explode] is free when none is in flight.

   Every delivery event carries the same [on_fire] closure and its slot
   index as the scheduler argument, so scheduling one allocates nothing. *)
type 'w t = {
  sched : Scheduler.t;
  topology : Topology.t;
  latency : Latency.t;
  rng : Rng.t;
  deliver : src:Topology.pid -> dst:Topology.pid -> 'w -> unit;
  on_fire : unit -> unit;
  mutable slots : 'w slot array;
  mutable free : int array;
  mutable free_top : int;
  mutable tails : int array;
      (* link [l] -> the last slot on its list, or [-1-l] when it is
         empty; allocated with the slab, so a network that never sends
         holds none *)
  mutable chain : int array;
      (* slot [i]'s successor [chain.(2i)] and predecessor [chain.(2i+1)]
         on its link's list. A negative entry is an end of the list: [-1-l]
         for link [l], so unlinking a slot needs no link computation. A
         list is walked from its tail, so no link keeps a head. *)
  mutable live_multi : int;
  mutable row_at : Sim_time.t array array;
  mutable row_dst : Topology.pid array array;
      (* slot -> [send_multi]'s arrival and destination rows, kept sorted
         by arrival while a fan-out is admitted; a row grows to the
         largest fan-out its slot has carried and is never copied. *)
  n_groups : int;
  holds : Sim_time.t array;
      (* dense (src_group, dst_group) -> release floor, [Sim_time.zero] =
         link unheld. [hold_floor] sits on the admission hot path, so the
         lookup must stay an array read even at hundred-group scale —
         g*g entries is small (10k words at 100 groups) next to the
         per-process state. *)
  scales : float array; (* dense link latency scales, 1.0 = base model *)
  mutable explode_fanout : bool;
      (* controlled-scheduling mode: give every fan-out destination its own
         scheduler event so a model checker can reorder them individually *)
  mutable tx_cost : Sim_time.t;
      (* per-message egress serialization at the sender's NIC: each
         admitted message occupies the source for [tx_cost] before its
         propagation delay starts, so fan-outs and high offered rates
         queue at the sender instead of enjoying infinite bandwidth. Zero
         (the default) keeps the pure-latency model byte for byte. *)
  mutable next_free : Sim_time.t array; (* per-source egress availability *)
  mutable sent_total : int;
  mutable sent_inter : int;
  mutable sent_intra : int;
}

let release_slot t i =
  t.slots.(i) <- Free;
  t.free.(t.free_top) <- i;
  t.free_top <- t.free_top + 1

let link t ~src_group ~dst_group = (src_group * t.n_groups) + dst_group

let link_of t ~src ~dst =
  link t
    ~src_group:(Topology.group_of t.topology src)
    ~dst_group:(Topology.group_of t.topology dst)

(* Appends single slot [i] to link [l]'s list. *)
let link_append t l i =
  let c = t.chain and last = t.tails.(l) in
  c.(2 * i) <- -1 - l;
  c.((2 * i) + 1) <- last;
  if last >= 0 then c.(2 * last) <- i;
  t.tails.(l) <- i

(* Frees single slot [i], taking it off its link's list. *)
let release_single t i =
  let c = t.chain in
  let next = c.(2 * i) and prev = c.((2 * i) + 1) in
  if prev >= 0 then c.(2 * prev) <- next;
  if next < 0 then t.tails.(-1 - next) <- prev
  else c.((2 * next) + 1) <- prev;
  release_slot t i

let release_multi t i =
  t.live_multi <- t.live_multi - 1;
  release_slot t i

let fire t i =
  match t.slots.(i) with
  | Free -> ()
  | Single s ->
    release_single t i;
    t.deliver ~src:s.src ~dst:s.dst s.payload
  | Multi m ->
    let dst = m.dsts.(m.pos) in
    m.pos <- m.pos + 1;
    (* Re-arm (or release) before delivering: the delivery can send, and a
       released slot must be reusable from inside it. *)
    if m.pos < m.len then
      m.handle <-
        Scheduler.at_arg t.sched
          (Scheduler.Tag.deliver m.dsts.(m.pos))
          m.arrivals.(m.pos) t.on_fire i
    else release_multi t i;
    t.deliver ~src:m.src ~dst m.payload

let create ~sched ~topology ~latency ~rng ~deliver =
  let g = Topology.n_groups topology in
  let holds = Array.make (g * g) Sim_time.zero in
  let scales = Array.make (g * g) 1.0 in
  let next_free = Array.make (Topology.n_processes topology) Sim_time.zero in
  let rec t =
    {
      sched;
      topology;
      latency;
      rng;
      deliver;
      on_fire = (fun () -> fire t (Scheduler.arg sched));
      slots = [||];
      free = [||];
      free_top = 0;
      tails = [||];
      chain = [||];
      live_multi = 0;
      row_at = [||];
      row_dst = [||];
      n_groups = g;
      holds;
      scales;
      explode_fanout = false;
      tx_cost = Sim_time.zero;
      next_free;
      sent_total = 0;
      sent_inter = 0;
      sent_intra = 0;
    }
  in
  t

let hold_floor t ~src_group ~dst_group = t.holds.(link t ~src_group ~dst_group)

let acquire_slot t =
  if t.free_top = 0 then begin
    let cap = Array.length t.slots in
    let ncap = if cap = 0 then 64 else cap * 2 in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.slots <- extend t.slots Free;
    if cap = 0 then
      t.tails <- Array.init (t.n_groups * t.n_groups) (fun l -> -1 - l);
    let chain = Array.make (2 * ncap) 0 in
    Array.blit t.chain 0 chain 0 (2 * cap);
    t.chain <- chain;
    t.row_at <- extend t.row_at [||];
    t.row_dst <- extend t.row_dst [||];
    let nf = Array.make ncap 0 in
    t.free <- nf;
    (* Push new indices high-to-low so low indices are handed out first. *)
    for i = ncap - 1 downto cap do
      t.free.(t.free_top) <- i;
      t.free_top <- t.free_top + 1
    done
  end;
  t.free_top <- t.free_top - 1;
  t.free.(t.free_top)

(* Schedules one message on link [l] (its [src]'s group to its [dst]'s). *)
let schedule_delivery t ~src ~dst ~l ~arrival payload =
  let i = acquire_slot t in
  let handle =
    Scheduler.at_arg t.sched (Scheduler.Tag.deliver dst) arrival t.on_fire i
  in
  t.slots.(i) <- Single { src; dst; payload; handle };
  link_append t l i

(* One latency draw on a link, with any active spike scale applied — shared
   by admission and by [heal]'s re-scheduling so a spiked link stays spiked
   for messages released from a partition. *)
let sample_delay t ~src_group ~dst_group =
  let delay = Latency.sample t.latency t.rng ~src_group ~dst_group in
  let s = t.scales.(link t ~src_group ~dst_group) in
  if s = 1.0 then delay
  else
    Sim_time.of_us
      (Int.max 0 (int_of_float (s *. float_of_int (Sim_time.to_us delay))))

(* Per-destination admission: the counters and the latency draw, without
   allocating. Both fan-out shapes call it once per destination, in
   destination order, so they draw the same rng stream. *)
let arrival t ~src ~src_group ~dst_group =
  t.sent_total <- t.sent_total + 1;
  if src_group = dst_group then t.sent_intra <- t.sent_intra + 1
  else t.sent_inter <- t.sent_inter + 1;
  let delay = sample_delay t ~src_group ~dst_group in
  let departure =
    if Sim_time.compare t.tx_cost Sim_time.zero > 0 then begin
      (* Serialize at the sender's NIC: this message departs once the
         egress is free, and occupies it for [tx_cost]. *)
      let d = Sim_time.max (Scheduler.now t.sched) t.next_free.(src) in
      t.next_free.(src) <- Sim_time.add d t.tx_cost;
      d
    end
    else Scheduler.now t.sched
  in
  let arrival = Sim_time.add departure delay in
  Sim_time.max arrival (hold_floor t ~src_group ~dst_group)

(* Inserts the [n+1]-th admitted destination into slot [i]'s rows, after
   every arrival not later than its own: a stable insertion sort. *)
let fan_insert t i n (at : Sim_time.t) dst =
  if n = Array.length t.row_at.(i) then begin
    let cap = Int.max 16 (2 * n) in
    let at' = Array.make cap Sim_time.zero and dst' = Array.make cap 0 in
    Array.blit t.row_at.(i) 0 at' 0 n;
    Array.blit t.row_dst.(i) 0 dst' 0 n;
    t.row_at.(i) <- at';
    t.row_dst.(i) <- dst'
  end;
  let row_at = t.row_at.(i) and row_dst = t.row_dst.(i) in
  let k = ref n in
  while !k > 0 && (row_at.(!k - 1) :> int) > (at :> int) do
    row_at.(!k) <- row_at.(!k - 1);
    row_dst.(!k) <- row_dst.(!k - 1);
    decr k
  done;
  row_at.(!k) <- at;
  row_dst.(!k) <- dst

(* Admits [dsts] in order into slot [i]'s rows; returns their count. *)
let rec fan_admit t i ~src ~src_group n = function
  | [] -> n
  | dst :: rest ->
    let dst_group = Topology.group_of t.topology dst in
    fan_insert t i n (arrival t ~src ~src_group ~dst_group) dst;
    fan_admit t i ~src ~src_group (n + 1) rest

(* One [Single] slot and event per destination, admitted in order. *)
let rec schedule_each t ~src ~src_group payload = function
  | [] -> ()
  | dst :: rest ->
    let dst_group = Topology.group_of t.topology dst in
    schedule_delivery t ~src ~dst
      ~l:(link t ~src_group ~dst_group)
      ~arrival:(arrival t ~src ~src_group ~dst_group)
      payload;
    schedule_each t ~src ~src_group payload rest

let send_multi t ~src ~dsts payload =
  let src_group = Topology.group_of t.topology src in
  match dsts with
  | _ :: _ :: _ when not t.explode_fanout ->
    (* Admission acquires no slot, so taking the slot first hands out the
       same index a later [acquire_slot] would. *)
    let i = acquire_slot t in
    let len = fan_admit t i ~src ~src_group 0 dsts in
    let arrivals = t.row_at.(i) and dsts = t.row_dst.(i) in
    let handle =
      Scheduler.at_arg t.sched (Scheduler.Tag.deliver dsts.(0)) arrivals.(0)
        t.on_fire i
    in
    t.live_multi <- t.live_multi + 1;
    t.slots.(i) <- Multi { src; payload; arrivals; dsts; len; pos = 0; handle }
  | _ ->
    (* One destination needs no rows. In controlled mode every destination
       gets its own event, so the explorer can reorder a fan-out's
       deliveries independently. Admissions and latency draws happen in
       the same order as on the slab path, so both shapes give the same
       receives at the same times; only ties with events scheduled in
       between can break differently (see [Services.send_multi]). *)
    schedule_each t ~src ~src_group payload dsts

(* The adversarial controls below reason about one (src, dst, arrival)
   triple per slot, so they dissolve every live fan-out into singles
   first, in slot order: the singles' fresh handles break ties between
   equal arrival times, so which fan-outs dissolve, and in which order, is
   observable. With no fan-out in flight this returns at once; otherwise it
   scans the slab. Indices are collected before any slot is touched:
   releasing/acquiring mid-iteration can swap the slab array out from
   under the scan. *)
let explode t =
  if t.live_multi > 0 then begin
    let multis = ref [] in
    for i = Array.length t.slots - 1 downto 0 do
      match t.slots.(i) with Multi _ -> multis := i :: !multis | _ -> ()
    done;
    List.iter
      (fun i ->
        match t.slots.(i) with
        | Multi m ->
          (* Read the rows first: once released, the slot and its rows can
             be handed out again. *)
          let rest =
            List.init (m.len - m.pos) (fun j ->
                (m.dsts.(m.pos + j), m.arrivals.(m.pos + j)))
          in
          Scheduler.cancel t.sched m.handle;
          release_multi t i;
          List.iter
            (fun (dst, arrival) ->
              schedule_delivery t ~src:m.src ~dst
                ~l:(link_of t ~src:m.src ~dst)
                ~arrival m.payload)
            rest
        | Free | Single _ -> assert false)
      !multis
  end

(* Cancels the event of single slot [i] and frees the slot; returns the
   message it held. *)
let unschedule t i =
  match t.slots.(i) with
  | Single s ->
    Scheduler.cancel t.sched s.handle;
    release_single t i;
    (s.src, s.dst, s.payload)
  | Free | Multi _ -> assert false

(* Slots of the in-flight messages on link [l], in scheduling order. The
   list is a snapshot: the caller re-schedules them onto the same link. *)
let inflight_on_link t l =
  explode t;
  let rec walk i acc =
    if i < 0 then acc else walk t.chain.((2 * i) + 1) (i :: acc)
  in
  if Array.length t.tails = 0 then [] else walk t.tails.(l) []

let hold t ~src_group ~dst_group ~until =
  let l = link t ~src_group ~dst_group in
  t.holds.(l) <- Sim_time.max t.holds.(l) until;
  (* Push back messages already in flight on that link. *)
  List.iter
    (fun i ->
      let src, dst, payload = unschedule t i in
      schedule_delivery t ~src ~dst ~l ~arrival:until payload)
    (inflight_on_link t l)

let partition t ~src_group ~dst_group =
  hold t ~src_group ~dst_group ~until:Sim_time.infinity

let heal t ~src_group ~dst_group =
  let l = link t ~src_group ~dst_group in
  if not (Sim_time.equal t.holds.(l) Sim_time.zero) then begin
    t.holds.(l) <- Sim_time.zero;
    (* Re-schedule everything that was parked on this link with a fresh
       latency sample from the healing instant. *)
    List.iter
      (fun i ->
        let src, dst, payload = unschedule t i in
        let delay = sample_delay t ~src_group ~dst_group in
        let arrival = Sim_time.add (Scheduler.now t.sched) delay in
        schedule_delivery t ~src ~dst ~l ~arrival payload)
      (inflight_on_link t l)
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
  (* A g*g scan of the hold floors; only held links cost more. *)
  for src_group = 0 to t.n_groups - 1 do
    for dst_group = 0 to t.n_groups - 1 do
      if
        not
          (Sim_time.equal
             t.holds.(link t ~src_group ~dst_group)
             Sim_time.zero)
      then heal t ~src_group ~dst_group
    done
  done

(* The predicate runs on every in-flight message in slot order, not link
   by link: a caller's predicate may draw randomness per match (the
   engine's [Lose_each_with_probability] does), so the visiting order is
   part of the fault stream. *)
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
  if scale <= 0. then invalid_arg "Network.latency_scale: scale must be > 0";
  t.scales.(link t ~src_group ~dst_group) <- scale

let set_explode_fanout t b = t.explode_fanout <- b

let set_tx_cost t c =
  if Sim_time.compare c Sim_time.zero < 0 then
    invalid_arg "Network.set_tx_cost: cost must be >= 0";
  t.tx_cost <- c

let sent_total t = t.sent_total
let sent_inter_group t = t.sent_inter
let sent_intra_group t = t.sent_intra

let in_flight t =
  let n = ref 0 in
  Array.iter
    (fun s ->
      match s with
      | Free -> ()
      | Single _ -> incr n
      | Multi m -> n := !n + (m.len - m.pos))
    t.slots;
  !n
