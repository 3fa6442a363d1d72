(* A binary min-heap over a slab of entries, both laid out as flat arrays.

   Each entry lives in a slab slot: [handles], [tags], [args] and
   [payloads] at the same index, written once when the entry is added and
   cleared when it leaves. The heap proper is two int columns, [times] and
   [slots]: a sift moves two ints per level and never a boxed value, so it
   allocates nothing and never goes through the write barrier. A key's
   handle is read through its slot only to break a time tie.

   The handle names its slot: [(seq lsl slot_bits) lor slot], where [seq]
   counts insertions. Comparing handles therefore compares insertion
   order, so the handle is also the tie-break key, and a handle is unique
   for the queue's lifetime. [handles.(slot)] keeps the handle of the
   slot's latest entry: a handle that no longer matches it is stale (its
   slot was reused) and [cancel]/[take] ignore it.

   [state] holds one byte per slot: [st_free] (on the free stack),
   [st_live], or [st_dead] (cancelled, still in the heap). Cancellation
   is O(1): it marks the slot dead and drops the payload at once. Dead
   entries stay in the heap until they reach the root, unless they come
   to outnumber the live ones, in which case [compact] drops them all at
   once. A free or dead slot's payload is [dummy], so the queue never
   keeps a popped or cancelled payload reachable. *)
type 'a t = {
  mutable times : Sim_time.t array; (* heap position -> time *)
  mutable slots : int array; (* heap position -> slab slot *)
  mutable handles : int array; (* slot -> handle of its latest entry *)
  mutable tags : int array; (* slot -> caller-defined metadata *)
  mutable args : int array; (* slot -> caller-defined argument *)
  mutable payloads : 'a array; (* slot -> payload *)
  mutable state : Bytes.t; (* slot -> [st_free] | [st_live] | [st_dead] *)
  mutable free : int array; (* free slots: [free.(0 .. free_top-1)] *)
  mutable free_top : int;
  dummy : 'a;
  mutable len : int; (* heap size, dead entries included *)
  mutable next : int; (* the next insertion sequence number *)
  mutable live : int;
}

let slot_bits = 24
let max_slots = 1 lsl slot_bits
let st_free = '\000'
let st_live = '\001'
let st_dead = '\002'

let create ~dummy =
  { times = [||]; slots = [||]; handles = [||]; tags = [||]; args = [||];
    payloads = [||]; state = Bytes.empty; free = [||]; free_top = 0; dummy;
    len = 0; next = 0; live = 0 }

(* The heap code indexes only positions below [len] and slots they hold,
   both within the columns' common length, so it skips the bounds checks.
   Declared as primitives, not bound to [Array.unsafe_get]: an alias would
   be a generic function call on every access. *)
external ( .%() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .%()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let[@inline] is_live q slot = Bytes.unsafe_get q.state slot = st_live

(* The slot [handle] names, if that slot still holds the handle's entry
   and the entry is live; -1 otherwise (negative, unknown, stale, popped
   or cancelled). *)
let live_slot q handle =
  if handle < 0 then -1
  else
    let slot = handle land (max_slots - 1) in
    if slot < Array.length q.handles && q.handles.(slot) = handle
       && is_live q slot
    then slot
    else -1

let[@inline] handle_at q i = q.handles.%(q.slots.%(i))

(* Whether key [(time, handle)] sorts before the entry at heap position [i]. *)
let[@inline] key_before q (time : Sim_time.t) handle i =
  let t = (time :> int) and ti = (q.times.%(i) :> int) in
  t < ti || (t = ti && handle < handle_at q i)

let[@inline] entry_before q i j =
  let ti = (q.times.%(i) :> int) and tj = (q.times.%(j) :> int) in
  ti < tj || (ti = tj && handle_at q i < handle_at q j)

let[@inline] move q ~src ~dst =
  q.times.%(dst) <- q.times.%(src);
  q.slots.%(dst) <- q.slots.%(src)

let[@inline] place q i time slot =
  q.times.%(i) <- time;
  q.slots.%(i) <- slot

(* Hole-based sifts: the moving entry travels in arguments and is written
   exactly once, at its final position. *)
let sift_up q i time handle slot =
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key_before q time handle parent then begin
      move q ~src:parent ~dst:!i;
      i := parent
    end
    else moving := false
  done;
  place q !i time slot

let sift_down q i time handle slot =
  let i = ref i in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= q.len then moving := false
    else begin
      let r = l + 1 in
      let c = if r < q.len && entry_before q r l then r else l in
      (* Keys are unique: the child sorts first iff ours does not. *)
      if key_before q time handle c then moving := false
      else begin
        move q ~src:c ~dst:!i;
        i := c
      end
    end
  done;
  place q !i time slot

(* Doubles every column, up to [max_slots]; the new slots go on the free
   stack, lowest on top. *)
let grow q =
  let cap = Array.length q.slots in
  if cap >= max_slots then
    failwith "Event_queue.add: more than 2^24 pending entries";
  let ncap = if cap = 0 then 16 else Int.min (2 * cap) max_slots in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  q.times <- extend q.times Sim_time.zero;
  q.slots <- extend q.slots 0;
  q.handles <- extend q.handles (-1);
  q.tags <- extend q.tags 0;
  q.args <- extend q.args 0;
  q.payloads <- extend q.payloads q.dummy;
  q.free <- extend q.free 0;
  let state = Bytes.make ncap st_free in
  Bytes.blit q.state 0 state 0 cap;
  q.state <- state;
  for s = ncap - 1 downto cap do
    q.free.(q.free_top) <- s;
    q.free_top <- q.free_top + 1
  done

let add_tagged q ~time ~tag ~arg payload =
  if q.free_top = 0 then grow q;
  q.free_top <- q.free_top - 1;
  let slot = q.free.(q.free_top) in
  let handle = (q.next lsl slot_bits) lor slot in
  q.next <- q.next + 1;
  q.handles.(slot) <- handle;
  q.tags.(slot) <- tag;
  q.args.(slot) <- arg;
  q.payloads.(slot) <- payload;
  Bytes.unsafe_set q.state slot st_live;
  q.live <- q.live + 1;
  q.len <- q.len + 1;
  sift_up q (q.len - 1) time handle slot;
  handle

let add q ~time payload = add_tagged q ~time ~tag:0 ~arg:0 payload

let release q slot =
  q.payloads.(slot) <- q.dummy;
  Bytes.unsafe_set q.state slot st_free;
  q.free.(q.free_top) <- slot;
  q.free_top <- q.free_top + 1

(* Removes the entry at heap position [i] and frees its slot, re-seating
   the last entry in the hole. [live] is the caller's business. *)
let remove_at q i =
  release q q.slots.(i);
  let last = q.len - 1 in
  q.len <- last;
  if i < last then begin
    let time = q.times.(last) and slot = q.slots.(last) in
    let handle = q.handles.(slot) in
    if i > 0 && key_before q time handle ((i - 1) / 2) then
      sift_up q i time handle slot
    else sift_down q i time handle slot
  end

(* Drops every dead entry and restores the heap bottom-up. Keys
   [(time, handle)] are unique, so the pop order is unchanged. *)
let compact q =
  let len = q.len in
  let j = ref 0 in
  for i = 0 to len - 1 do
    if is_live q q.slots.(i) then begin
      move q ~src:i ~dst:!j;
      incr j
    end
    else release q q.slots.(i)
  done;
  q.len <- !j;
  for i = (q.len / 2) - 1 downto 0 do
    sift_down q i q.times.(i) (handle_at q i) q.slots.(i)
  done

(* Compacts once dead entries outnumber live ones; below 64 dead entries
   the scan is not worth it. *)
let cancel q handle =
  let slot = live_slot q handle in
  if slot >= 0 then begin
    Bytes.unsafe_set q.state slot st_dead;
    q.payloads.(slot) <- q.dummy;
    q.live <- q.live - 1;
    let dead = q.len - q.live in
    if dead > q.live && dead >= 64 then compact q
  end

let rec ready q =
  q.len > 0
  && (is_live q q.slots.(0)
     || begin
       remove_at q 0;
       ready q
     end)

let top_time q = q.times.(0)
let top_arg q = q.args.(q.slots.(0))

let pop_top q =
  let payload = q.payloads.(q.slots.(0)) in
  q.live <- q.live - 1;
  remove_at q 0;
  payload

let pop q =
  if ready q then begin
    let time = top_time q in
    Some (time, pop_top q)
  end
  else None

let peek_time q = if ready q then Some (top_time q) else None
let size q = q.live
(* Controlled-scheduling support (the model checker's view). These walk the
   heap columns, so they are O(len) / O(len log len) — irrelevant next to
   the cost of exploring an interleaving. *)

let live q =
  let acc = ref [] in
  for i = q.len - 1 downto 0 do
    let slot = q.slots.(i) in
    if is_live q slot then
      acc := (q.handles.(slot), q.times.(i), q.tags.(slot)) :: !acc
  done;
  List.sort
    (fun (ha, ta, _) (hb, tb, _) ->
      let c = Sim_time.compare ta tb in
      if c <> 0 then c else Int.compare ha hb)
    !acc

let take q handle =
  let slot = live_slot q handle in
  if slot < 0 then None
  else begin
    let i = ref 0 in
    while q.slots.(!i) <> slot do
      incr i
    done;
    let entry = (q.times.(!i), q.args.(slot), q.payloads.(slot)) in
    q.live <- q.live - 1;
    remove_at q !i;
    Some entry
  end
