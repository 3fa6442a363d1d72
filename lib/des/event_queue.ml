(* A calendar queue (Brown, CACM 1988) with a far tier, over a slab of
   entries laid out as flat arrays.

   Each entry lives in a slab slot: [times], [handles], [tags], [args] and
   [payloads] at the same index, written once when the entry is added and
   cleared when it leaves. The handle names its slot:
   [(seq lsl slot_bits) lor slot], where [seq] counts insertions.
   Comparing handles therefore compares insertion order, so the handle is
   also the tie-break key, and a handle is unique for the queue's
   lifetime. [handles.(slot)] keeps the handle of the slot's latest entry:
   a handle that no longer matches it is stale (its slot was reused) and
   [cancel]/[take] ignore it.

   Time is cut into buckets of width [2^shift]; an entry's absolute
   bucket is [time lsr shift]. The near tier is an array of [mask + 1]
   buckets, each a doubly linked list of slots ([next]/[prev]) sorted by
   [(time, handle)]; absolute bucket [b] lives at index [b land mask].
   [cur] is the cursor: no near entry lies in a bucket below it. An entry
   less than [mask + 1] buckets past the cursor goes near, one further
   out goes to the far tier, a binary heap of slots keyed by
   [(time, handle)] whose positions sit in [next]. Either placement is
   correct, because extraction compares the near tier's earliest entry
   with the far root: the split only decides what an entry costs.

   Extraction moves the cursor forward over buckets holding nothing in
   its lap, and stops early at the far root's bucket. A new entry's
   handle is the largest yet, so an insert walks back from its bucket's
   tail only past later times. An insert below the cursor moves the
   cursor back to it. Every removal (pop, [take], [cancel]) unlinks the
   entry at once: near in O(1), far in O(log far).

   The geometry comes from the queue's own traffic. Every [due] pops, or
   sooner once the pops have spanned four windows, [retune] sets the
   width from the mean time between those pops and widens the window
   until at most one add in [miss_ratio] went far although a wider
   window would have kept it near. A free slot's payload is [dummy], so
   the queue never keeps a popped or cancelled payload reachable. *)
type 'a t = {
  mutable times : Sim_time.t array; (* slot -> time *)
  mutable handles : int array; (* slot -> handle of its latest entry *)
  mutable tags : int array; (* slot -> caller-defined metadata *)
  mutable args : int array; (* slot -> caller-defined argument *)
  mutable payloads : 'a array; (* slot -> payload *)
  mutable next : int array; (* near: next slot or -1; far: heap position *)
  mutable prev : int array; (* near: previous slot or -1 *)
  mutable state : Bytes.t; (* slot -> [st_free] | [st_near] | [st_far] *)
  mutable free : int array; (* free slots: [free.(0 .. free_top-1)] *)
  mutable free_top : int;
  mutable heads : int array; (* bucket -> first slot or -1 *)
  mutable tails : int array; (* bucket -> last slot or -1 *)
  mutable shift : int; (* buckets are [2^shift] wide *)
  mutable mask : int; (* bucket count - 1 *)
  mutable cur : int;
  mutable near : int; (* entries in the near tier *)
  mutable far : int array; (* heap position -> slot *)
  mutable far_len : int;
  mutable top : int; (* the slot [ready] found *)
  mutable seq : int; (* the next insertion sequence number *)
  mutable live : int;
  (* Traffic since the last retune. *)
  mutable pops : int;
  mutable due : int; (* retune once [pops] reaches it *)
  mutable adds : int;
  mutable misses : int array; (* far adds by log2 of their distance *)
  mutable since : int; (* time of the last retune *)
  mutable last : int; (* time of the last pop *)
  dummy : 'a;
}

let slot_bits = 24
let max_slots = 1 lsl slot_bits
let st_free = '\000'
let st_near = '\001'
let st_far = '\002'

(* The geometry's bounds and starting point, in log2: 16 to 65 536
   buckets of at most 2^40 us (which keeps a window's span, and the
   shifts that compute it, within an int), starting at 16 buckets of
   1 024 us. *)
let min_bits = 4
let max_bits = 16
let max_shift = 40
let first_shift = 10
let first_due = 64
let miss_ratio = 32

let create ~dummy =
  { times = [||]; handles = [||]; tags = [||]; args = [||]; payloads = [||];
    next = [||]; prev = [||]; state = Bytes.empty; free = [||]; free_top = 0;
    heads = [||]; tails = [||]; shift = first_shift; mask = -1; cur = 0;
    near = 0; far = [||]; far_len = 0; top = -1; seq = 0; live = 0;
    pops = 0; due = first_due; adds = 0; misses = [||]; since = 0; last = 0;
    dummy }

(* The code below indexes only slots, buckets and heap positions within
   their columns, so it skips the bounds checks. Declared as primitives,
   not bound to [Array.unsafe_get]: an alias would be a generic function
   call on every access. *)
external ( .%() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .%()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let[@inline] state q slot = Bytes.unsafe_get q.state slot
let[@inline] time_of q slot = (q.times.%(slot) :> int)
let[@inline] bucket_of q slot = time_of q slot lsr q.shift

(* Whether the entry in slot [a] sorts before the one in slot [b]. *)
let[@inline] before q a b =
  let ta = time_of q a and tb = time_of q b in
  ta < tb || (ta = tb && q.handles.%(a) < q.handles.%(b))

(* The slot [handle] names, if that slot still holds the handle's entry
   and the entry is pending; -1 otherwise (negative, unknown, stale,
   popped or cancelled). *)
let pending_slot q handle =
  if handle < 0 then -1
  else
    let slot = handle land (max_slots - 1) in
    if slot < Array.length q.handles && q.handles.(slot) = handle
       && state q slot <> st_free
    then slot
    else -1

let log2 n =
  let r = ref 0 and n = ref n in
  while !n > 1 do
    n := !n lsr 1;
    incr r
  done;
  !r

(* ----- Far tier: a binary min-heap of slots ----- *)

let[@inline] far_place q i slot =
  q.far.%(i) <- slot;
  q.next.%(slot) <- i

(* Hole-based sifts: the moving slot is written once, at its final
   position. *)
let far_up q i slot =
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = q.far.%(parent) in
    if before q slot p then begin
      far_place q !i p;
      i := parent
    end
    else moving := false
  done;
  far_place q !i slot

let far_down q i slot =
  let i = ref i in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= q.far_len then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < q.far_len && before q q.far.%(r) q.far.%(l) then r else l
      in
      let child = q.far.%(c) in
      if before q slot child then moving := false
      else begin
        far_place q !i child;
        i := c
      end
    end
  done;
  far_place q !i slot

let far_add q slot =
  if q.far_len = Array.length q.far then begin
    let a = Array.make (Int.max 16 (2 * q.far_len)) 0 in
    Array.blit q.far 0 a 0 q.far_len;
    q.far <- a
  end;
  q.far_len <- q.far_len + 1;
  far_up q (q.far_len - 1) slot

let far_remove q slot =
  let i = q.next.%(slot) in
  let last = q.far_len - 1 in
  q.far_len <- last;
  if i < last then begin
    let moved = q.far.%(last) in
    if i > 0 && before q moved q.far.%((i - 1) / 2) then far_up q i moved
    else far_down q i moved
  end

(* ----- Near tier ----- *)

(* Links [slot] into its bucket after every entry that sorts before it.
   Walking back from the tail past later times is enough: no pending
   entry of equal time has a larger handle than one being placed. *)
let near_add q slot =
  let time = time_of q slot in
  let b = (time lsr q.shift) land q.mask in
  let p = ref q.tails.%(b) in
  while !p >= 0 && time_of q !p > time do
    p := q.prev.%(!p)
  done;
  let p = !p in
  let n = if p < 0 then q.heads.%(b) else q.next.%(p) in
  q.prev.%(slot) <- p;
  q.next.%(slot) <- n;
  if p < 0 then q.heads.%(b) <- slot else q.next.%(p) <- slot;
  if n < 0 then q.tails.%(b) <- slot else q.prev.%(n) <- slot;
  q.near <- q.near + 1

let near_remove q slot =
  let p = q.prev.%(slot) and n = q.next.%(slot) in
  let b = bucket_of q slot land q.mask in
  if p < 0 then q.heads.%(b) <- n else q.next.%(p) <- n;
  if n < 0 then q.tails.%(b) <- p else q.prev.%(n) <- p;
  q.near <- q.near - 1

(* Files [slot] near or far by its distance from the cursor. After the
   first retune, a far add within the largest window counts as a miss at
   log2 of its distance. *)
let place q slot =
  let b = bucket_of q slot in
  if b < q.cur then q.cur <- b;
  if b - q.cur <= q.mask then begin
    Bytes.unsafe_set q.state slot st_near;
    near_add q slot
  end
  else begin
    let d = time_of q slot - (q.cur lsl q.shift) in
    if Array.length q.misses > 0 && d lsr (q.shift + max_bits) = 0 then begin
      let k = log2 d in
      q.misses.(k) <- q.misses.(k) + 1
    end;
    Bytes.unsafe_set q.state slot st_far;
    far_add q slot
  end

(* Re-files every near entry under a new geometry, in (time, handle)
   order so that each lands at its bucket's tail. Far entries stay put:
   which tier an entry waits in does not change when it pops. *)
let rebucket q ~shift ~bits =
  let slots = Array.make q.near 0 and k = ref 0 in
  Array.iter
    (fun h ->
      let s = ref h in
      while !s >= 0 do
        slots.(!k) <- !s;
        incr k;
        s := q.next.(!s)
      done)
    q.heads;
  Array.sort
    (fun a b ->
      let c = Sim_time.compare q.times.(a) q.times.(b) in
      if c <> 0 then c else Int.compare q.handles.(a) q.handles.(b))
    slots;
  q.cur <- (q.cur lsl q.shift) lsr shift;
  q.shift <- shift;
  if bits = log2 (q.mask + 1) then begin
    Array.fill q.heads 0 (q.mask + 1) (-1);
    Array.fill q.tails 0 (q.mask + 1) (-1)
  end
  else begin
    q.mask <- (1 lsl bits) - 1;
    q.heads <- Array.make (1 lsl bits) (-1);
    q.tails <- Array.make (1 lsl bits) (-1)
  end;
  q.near <- 0;
  Array.iter (place q) slots

(* The width becomes the power of two above twice the mean time between
   the pops since the last retune, unless that is within a factor of two
   of the current one. The window (width times bucket count) keeps its
   span, widened while more than one add in [miss_ratio] fell beyond it.
   Misses are counted from the first retune on: the adds before the
   first pops are the up-front ones (a workload's casts), which belong
   in the far tier however far the window could reach. *)
let retune q =
  let gap = (q.last - q.since) / q.pops in
  let want = Int.min max_shift (log2 (Int.max 1 gap) + 2) in
  let shift = if abs (want - q.shift) >= 2 then want else q.shift in
  let span = ref (q.shift + log2 (q.mask + 1)) and beyond = ref 0 in
  for k = Array.length q.misses - 1 downto !span do
    beyond := !beyond + q.misses.(k);
    if !beyond * miss_ratio > q.adds then span := Int.max !span (k + 1)
  done;
  let bits = Int.max min_bits (Int.min max_bits (!span - shift)) in
  if shift <> q.shift || bits <> log2 (q.mask + 1) then
    rebucket q ~shift ~bits;
  if Array.length q.misses = 0 then q.misses <- Array.make 63 0
  else Array.fill q.misses 0 (Array.length q.misses) 0;
  q.pops <- 0;
  q.adds <- 0;
  q.since <- q.last;
  q.due <- Int.max 256 (2 * (q.mask + 1))

(* Doubles every slab column, up to [max_slots]; the new slots go on the
   free stack, lowest on top. The first call also sets up the buckets. *)
let grow q =
  let cap = Array.length q.handles in
  if cap >= max_slots then
    failwith "Event_queue.add: more than 2^24 pending entries";
  let ncap = if cap = 0 then 16 else Int.min (2 * cap) max_slots in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  q.times <- extend q.times Sim_time.zero;
  q.handles <- extend q.handles (-1);
  q.tags <- extend q.tags 0;
  q.args <- extend q.args 0;
  q.payloads <- extend q.payloads q.dummy;
  q.next <- extend q.next (-1);
  q.prev <- extend q.prev (-1);
  q.free <- extend q.free 0;
  let state = Bytes.make ncap st_free in
  Bytes.blit q.state 0 state 0 cap;
  q.state <- state;
  for s = ncap - 1 downto cap do
    q.free.(q.free_top) <- s;
    q.free_top <- q.free_top + 1
  done;
  if cap = 0 then begin
    q.heads <- Array.make (1 lsl min_bits) (-1);
    q.tails <- Array.make (1 lsl min_bits) (-1);
    q.mask <- (1 lsl min_bits) - 1
  end

let add_tagged q ~time ~tag ~arg payload =
  if q.free_top = 0 then grow q;
  q.free_top <- q.free_top - 1;
  let slot = q.free.(q.free_top) in
  let handle = (q.seq lsl slot_bits) lor slot in
  q.seq <- q.seq + 1;
  q.times.(slot) <- time;
  q.handles.(slot) <- handle;
  q.tags.(slot) <- tag;
  q.args.(slot) <- arg;
  q.payloads.(slot) <- payload;
  q.live <- q.live + 1;
  q.adds <- q.adds + 1;
  place q slot;
  handle

let add q ~time payload = add_tagged q ~time ~tag:0 ~arg:0 payload

(* Unlinks [slot] from its tier and frees it. *)
let remove q slot =
  if state q slot = st_near then near_remove q slot else far_remove q slot;
  q.payloads.(slot) <- q.dummy;
  Bytes.unsafe_set q.state slot st_free;
  q.free.(q.free_top) <- slot;
  q.free_top <- q.free_top + 1;
  q.live <- q.live - 1

let cancel q handle =
  let slot = pending_slot q handle in
  if slot >= 0 then remove q slot

(* The earliest near entry, or the far root if that is earlier. With no
   near entry the cursor jumps to the far root's bucket. A lap of empty
   buckets means every near entry lies in a later lap (the cursor moved
   back): the cursor then jumps to the earliest bucket head, which the
   next step finds. A second lap in one call is a cursor bug, and fails
   rather than circling forever. *)
let find_top q =
  if q.near = 0 then begin
    let f = q.far.%(0) in
    q.cur <- bucket_of q f;
    f
  end
  else begin
    let found = ref (-1) and steps = ref 0 in
    while !found < 0 do
      let h = q.heads.%(q.cur land q.mask) in
      if h >= 0 && bucket_of q h = q.cur then
        found :=
          if q.far_len > 0 && before q q.far.%(0) h then q.far.%(0) else h
      else if q.far_len > 0 && bucket_of q q.far.%(0) <= q.cur then
        found := q.far.%(0)
      else if !steps > q.mask then begin
        (* [found] = -2: this call has already lapped once. *)
        if !found = -2 then failwith "Event_queue: cursor lapped twice";
        found := -2;
        let m = ref max_int in
        Array.iter
          (fun h -> if h >= 0 && time_of q h < !m then m := time_of q h)
          q.heads;
        q.cur <- !m lsr q.shift;
        steps := 0
      end
      else begin
        q.cur <- q.cur + 1;
        incr steps
      end
    done;
    !found
  end

let ready q =
  q.live > 0
  && begin
    q.top <- find_top q;
    true
  end

let top_time q = q.times.(q.top)
let top_arg q = q.args.(q.top)

let pop_top q =
  let slot = q.top in
  let payload = q.payloads.(slot) in
  q.last <- time_of q slot;
  remove q slot;
  q.pops <- q.pops + 1;
  if q.pops >= q.due
     || (q.pops >= 16 && q.last - q.since > (q.mask + 1) lsl (q.shift + 2))
  then retune q;
  payload

let pop q =
  if ready q then begin
    let time = top_time q in
    Some (time, pop_top q)
  end
  else None

let peek_time q = if ready q then Some (top_time q) else None
let size q = q.live

(* Controlled-scheduling support (the model checker's view). [live] walks
   the whole slab, so it is O(capacity + live log live) — irrelevant next
   to the cost of exploring an interleaving. *)

let live q =
  let acc = ref [] in
  for slot = Array.length q.handles - 1 downto 0 do
    if state q slot <> st_free then
      acc := (q.handles.(slot), q.times.(slot), q.tags.(slot)) :: !acc
  done;
  List.sort
    (fun (ha, ta, _) (hb, tb, _) ->
      let c = Sim_time.compare ta tb in
      if c <> 0 then c else Int.compare ha hb)
    !acc

let take q handle =
  let slot = pending_slot q handle in
  if slot < 0 then None
  else begin
    let entry = (q.times.(slot), q.args.(slot), q.payloads.(slot)) in
    remove q slot;
    Some entry
  end
