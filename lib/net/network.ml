open Des

(* In-flight messages live in a slab of slots laid out as columns, as in
   [Des.Event_queue]: a message needs no record of its own, so sending one
   allocates nothing. The slab grows by whole chunks of [chunk_size]
   slots and never moves a slot, so growing copies no column.

   A slot's int fields sit [stride] apart in its chunk's [ints]. [f_len]
   says what the slot holds: 0 when it is free; 1 for a single message to
   the destination [f_dst]; [n >= 2] for a fan-out of [n] destinations.
   A fan-out's per-destination arrivals are pre-sampled at send time into
   the slot's own rows ([row_at]/[row_dst], sorted by arrival, stable, so
   equal arrivals keep the order a per-destination send loop would
   deliver them in) and walked by a single scheduler event that re-arms
   itself for the destination at [f_pos] when it pops: a broadcast costs
   one event in the queue at any instant instead of one per destination.
   A slot's rows are reused by every fan-out it carries; a row grows to
   the largest fan-out its slot has carried and is never copied.

   [f_lc] and [f_env] are the two ints a message carries besides its
   payload; the network hands them back at delivery untouched.

   Every single message is also on its link's intrusive list
   ([f_next]/[f_prev]), appended when it is scheduled. Each schedule
   takes a fresh scheduler handle larger than every earlier one, so a
   link's list is in handle order, and the link controls
   ([hold]/[heal]/[partition]) walk their own link's messages in
   scheduling order without a slab scan or a sort. A negative link entry
   is an end of the list: [-1-l] for link [l], so unlinking a slot needs
   no link computation. A list is walked from its tail, so no link keeps
   a head. Fan-outs span several links and stay off the lists;
   [live_multi] counts them so [explode] is free when none is in flight.

   The free slots form a stack threaded through [f_next], lowest index on
   top when a chunk is added, so slots are handed out in the order a
   free-index stack would (the slot order is observable: see
   [explode]).

   Every delivery event carries the same [on_fire] closure and its slot
   index as the scheduler argument, so scheduling one allocates
   nothing. *)
(* 16 slots: a chunk's columns are small enough for the minor heap, so a
   short run's slab costs no major-heap allocation, and the whole-slab
   scans ([explode], [drop_inflight]) stay within 16 slots of the peak
   in-flight count. *)
let chunk_bits = 4
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let f_len = 0
let f_src = 1
let f_dst = 2
let f_lc = 3
let f_env = 4
let f_handle = 5
let f_pos = 6
let f_next = 7
let f_prev = 8
let stride = 9

type 'w chunk = {
  ints : int array; (* [chunk_size * stride] *)
  payloads : 'w array;
  filler : 'w; (* what the payload cell of a free slot holds *)
  row_at : Sim_time.t array array;
  row_dst : Topology.pid array array;
}

type 'w t = {
  sched : Scheduler.t;
  topology : Topology.t;
  latency : Latency.t;
  rng : Rng.t;
  deliver :
    src:Topology.pid -> dst:Topology.pid -> lc:int -> env:int -> 'w -> unit;
  on_fire : unit -> unit;
  mutable chunks : 'w chunk array;
  mutable free_head : int; (* the top free slot, -1 when none is free *)
  mutable tails : int array;
      (* link [l] -> the last slot on its list, or [-1-l] when it is
         empty; allocated with the first chunk, so a network that never
         sends holds none *)
  mutable live_multi : int;
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

let[@inline] chunk t i = t.chunks.(i lsr chunk_bits)
let[@inline] off i = (i land chunk_mask) * stride
let[@inline] get t i f = (chunk t i).ints.(off i + f)
let[@inline] set t i f v = (chunk t i).ints.(off i + f) <- v
let n_slots t = Array.length t.chunks * chunk_size

let release_slot t i =
  let c = chunk t i and o = off i in
  c.ints.(o + f_len) <- 0;
  c.payloads.(i land chunk_mask) <- c.filler;
  c.ints.(o + f_next) <- t.free_head;
  t.free_head <- i

let link t ~src_group ~dst_group = (src_group * t.n_groups) + dst_group

let link_of t ~src ~dst =
  link t
    ~src_group:(Topology.group_of t.topology src)
    ~dst_group:(Topology.group_of t.topology dst)

(* Appends single slot [i] to link [l]'s list. *)
let link_append t l i =
  let last = t.tails.(l) in
  set t i f_next (-1 - l);
  set t i f_prev last;
  if last >= 0 then set t last f_next i;
  t.tails.(l) <- i

(* Takes single slot [i] off its link's list. *)
let unlink t i =
  let next = get t i f_next and prev = get t i f_prev in
  if prev >= 0 then set t prev f_next next;
  if next < 0 then t.tails.(-1 - next) <- prev else set t next f_prev prev

let release_single t i =
  unlink t i;
  release_slot t i

let release_multi t i =
  t.live_multi <- t.live_multi - 1;
  release_slot t i

let fire t i =
  let c = chunk t i and o = off i in
  let ints = c.ints in
  let len = ints.(o + f_len) in
  if len > 0 then begin
    let j = i land chunk_mask in
    let src = ints.(o + f_src)
    and lc = ints.(o + f_lc)
    and env = ints.(o + f_env)
    and payload = c.payloads.(j) in
    if len = 1 then begin
      let dst = ints.(o + f_dst) in
      release_single t i;
      t.deliver ~src ~dst ~lc ~env payload
    end
    else begin
      let dsts = c.row_dst.(j) and pos = ints.(o + f_pos) in
      let dst = dsts.(pos) in
      let pos = pos + 1 in
      ints.(o + f_pos) <- pos;
      (* Re-arm (or release) before delivering: the delivery can send, and
         a released slot must be reusable from inside it. *)
      if pos < len then
        ints.(o + f_handle) <-
          Scheduler.at_arg t.sched
            (Scheduler.Tag.deliver dsts.(pos))
            c.row_at.(j).(pos) t.on_fire i
      else release_multi t i;
      t.deliver ~src ~dst ~lc ~env payload
    end
  end

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
      chunks = [||];
      free_head = -1;
      tails = [||];
      live_multi = 0;
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

(* Adds a chunk of free slots; called only when none is free. [filler] is
   the payload being sent, the only ['w] at hand. *)
let add_chunk t filler =
  let base = n_slots t in
  let ints = Array.make (chunk_size * stride) 0 in
  for j = 0 to chunk_size - 1 do
    ints.((j * stride) + f_next) <-
      (if j = chunk_size - 1 then t.free_head else base + j + 1)
  done;
  if base = 0 then
    t.tails <- Array.init (t.n_groups * t.n_groups) (fun l -> -1 - l);
  t.chunks <-
    Array.append t.chunks
      [|
        {
          ints;
          payloads = Array.make chunk_size filler;
          filler;
          row_at = Array.make chunk_size [||];
          row_dst = Array.make chunk_size [||];
        };
      |];
  t.free_head <- base

let acquire_slot t filler =
  if t.free_head < 0 then add_chunk t filler;
  let i = t.free_head in
  t.free_head <- get t i f_next;
  i

(* Schedules one message on link [l] (its [src]'s group to its [dst]'s). *)
let schedule_delivery t ~src ~dst ~lc ~env ~l ~arrival payload =
  let i = acquire_slot t payload in
  let handle =
    Scheduler.at_arg t.sched (Scheduler.Tag.deliver dst) arrival t.on_fire i
  in
  let c = chunk t i and o = off i in
  let ints = c.ints in
  ints.(o + f_len) <- 1;
  ints.(o + f_src) <- src;
  ints.(o + f_dst) <- dst;
  ints.(o + f_lc) <- lc;
  ints.(o + f_env) <- env;
  ints.(o + f_handle) <- handle;
  c.payloads.(i land chunk_mask) <- payload;
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
  let c = chunk t i and j = i land chunk_mask in
  if n = Array.length c.row_at.(j) then begin
    let cap = Int.max 16 (2 * n) in
    let at' = Array.make cap Sim_time.zero and dst' = Array.make cap 0 in
    Array.blit c.row_at.(j) 0 at' 0 n;
    Array.blit c.row_dst.(j) 0 dst' 0 n;
    c.row_at.(j) <- at';
    c.row_dst.(j) <- dst'
  end;
  let row_at = c.row_at.(j) and row_dst = c.row_dst.(j) in
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

let send t ~src ~dst ~lc ~env payload =
  let src_group = Topology.group_of t.topology src in
  let dst_group = Topology.group_of t.topology dst in
  schedule_delivery t ~src ~dst ~lc ~env
    ~l:(link t ~src_group ~dst_group)
    ~arrival:(arrival t ~src ~src_group ~dst_group)
    payload

(* One single slot and event per destination, admitted in order. *)
let rec schedule_each t ~src ~lc ~env payload = function
  | [] -> ()
  | dst :: rest ->
    send t ~src ~dst ~lc ~env payload;
    schedule_each t ~src ~lc ~env payload rest

let send_multi t ~src ~dsts ~lc ~env payload =
  match dsts with
  | _ :: _ :: _ when not t.explode_fanout ->
    (* Admission acquires no slot, so taking the slot first hands out the
       same index a later [acquire_slot] would. *)
    let i = acquire_slot t payload in
    let src_group = Topology.group_of t.topology src in
    let len = fan_admit t i ~src ~src_group 0 dsts in
    let c = chunk t i and j = i land chunk_mask in
    let handle =
      Scheduler.at_arg t.sched
        (Scheduler.Tag.deliver c.row_dst.(j).(0))
        c.row_at.(j).(0) t.on_fire i
    in
    t.live_multi <- t.live_multi + 1;
    let o = off i in
    c.ints.(o + f_len) <- len;
    c.ints.(o + f_src) <- src;
    c.ints.(o + f_lc) <- lc;
    c.ints.(o + f_env) <- env;
    c.ints.(o + f_handle) <- handle;
    c.ints.(o + f_pos) <- 0;
    c.payloads.(j) <- payload
  | _ ->
    (* One destination needs no rows. In controlled mode every destination
       gets its own event, so the explorer can reorder a fan-out's
       deliveries independently. Admissions and latency draws happen in
       the same order as on the slab path, so both shapes give the same
       receives at the same times; only ties with events scheduled in
       between can break differently (see [Services.send_multi]). *)
    schedule_each t ~src ~lc ~env payload dsts

(* The adversarial controls below reason about one (src, dst, arrival)
   triple per slot, so they dissolve every live fan-out into singles
   first, in slot order: the singles' fresh handles break ties between
   equal arrival times, so which fan-outs dissolve, and in which order, is
   observable. With no fan-out in flight this returns at once; otherwise it
   scans the slab. Indices are collected before any slot is touched, and
   a dissolved fan-out's first single takes back its slot, as a free-index
   stack would hand it out. Singles never write rows, so the fan-out's
   rows stay intact while its singles are scheduled. *)
let explode t =
  if t.live_multi > 0 then begin
    let multis = ref [] in
    for i = n_slots t - 1 downto 0 do
      if get t i f_len >= 2 then multis := i :: !multis
    done;
    List.iter
      (fun i ->
        let c = chunk t i and o = off i and j = i land chunk_mask in
        let ints = c.ints in
        let len = ints.(o + f_len) in
        assert (len >= 2);
        let src = ints.(o + f_src)
        and lc = ints.(o + f_lc)
        and env = ints.(o + f_env)
        and pos = ints.(o + f_pos)
        and payload = c.payloads.(j)
        and row_at = c.row_at.(j)
        and row_dst = c.row_dst.(j) in
        Scheduler.cancel t.sched ints.(o + f_handle);
        release_multi t i;
        for k = pos to len - 1 do
          let dst = row_dst.(k) in
          schedule_delivery t ~src ~dst ~lc ~env ~l:(link_of t ~src ~dst)
            ~arrival:row_at.(k) payload
        done)
      !multis
  end

(* Cancels the event of single slot [i] and frees the slot. *)
let unschedule t i =
  Scheduler.cancel t.sched (get t i f_handle);
  release_single t i

(* Moves single slot [i] to the end of link [l]'s list with a fresh event
   at [arrival]: what freeing it and scheduling its message anew does,
   since the free stack would hand the same slot back. *)
let reschedule t i ~l ~arrival =
  Scheduler.cancel t.sched (get t i f_handle);
  unlink t i;
  set t i f_handle
    (Scheduler.at_arg t.sched
       (Scheduler.Tag.deliver (get t i f_dst))
       arrival t.on_fire i);
  link_append t l i

(* Slots of the in-flight messages on link [l], in scheduling order. The
   list is a snapshot: the caller re-schedules them onto the same link. *)
let inflight_on_link t l =
  explode t;
  let rec walk i acc = if i < 0 then acc else walk (get t i f_prev) (i :: acc) in
  if Array.length t.tails = 0 then [] else walk t.tails.(l) []

let hold t ~src_group ~dst_group ~until =
  let l = link t ~src_group ~dst_group in
  t.holds.(l) <- Sim_time.max t.holds.(l) until;
  (* Push back messages already in flight on that link. *)
  List.iter
    (fun i -> reschedule t i ~l ~arrival:until)
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
        let delay = sample_delay t ~src_group ~dst_group in
        reschedule t i ~l ~arrival:(Sim_time.add (Scheduler.now t.sched) delay))
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
  for i = 0 to n_slots t - 1 do
    if get t i f_len = 1 && pred ~src:(get t i f_src) ~dst:(get t i f_dst)
    then victims := i :: !victims
  done;
  List.iter (unschedule t) !victims;
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
  for i = 0 to n_slots t - 1 do
    let len = get t i f_len in
    if len = 1 then incr n else if len >= 2 then n := !n + len - get t i f_pos
  done;
  !n
