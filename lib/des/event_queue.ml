(* A binary min-heap over a slab of entries, both laid out as flat arrays.

   Each entry lives in a slab slot: [seqs], [tags], [args] and [payloads]
   at the same index, written once when the entry is added and cleared
   when it leaves. The heap proper is two int columns, [times] and
   [slots]: a sift moves two ints per level and never a boxed value, so it
   allocates nothing and never goes through the write barrier. A key's
   sequence number is read through its slot only to break a time tie.

   The sequence number is also the handle: the insertion counter and the
   handle counter always advanced together, so one counter serves both.

   Cancellation is O(1): [flags] is a byte per issued handle (1 = live,
   0 = popped/cancelled/never issued) and [live] counts the set bits.
   Cancelled entries stay in the heap until they reach the root, unless
   they come to outnumber the live ones, in which case [compact] drops
   them all at once.

   A slot off the free stack holds a live entry or a cancelled one still
   in the heap; a free slot's payload is [dummy], so the queue never keeps
   a popped or cancelled payload reachable. *)
type 'a t = {
  mutable times : Sim_time.t array; (* heap position -> time *)
  mutable slots : int array; (* heap position -> slab slot *)
  mutable seqs : int array; (* slot -> sequence number, i.e. handle *)
  mutable tags : int array; (* slot -> caller-defined metadata *)
  mutable args : int array; (* slot -> caller-defined argument *)
  mutable payloads : 'a array; (* slot -> payload *)
  mutable free : int array; (* free slots: [free.(0 .. free_top-1)] *)
  mutable free_top : int;
  dummy : 'a;
  mutable len : int; (* heap size, cancelled entries included *)
  mutable next : int; (* the next sequence number *)
  mutable flags : Bytes.t;
  mutable live : int;
}

let create ~dummy =
  { times = [||]; slots = [||]; seqs = [||]; tags = [||]; args = [||];
    payloads = [||]; free = [||]; free_top = 0; dummy; len = 0; next = 0;
    flags = Bytes.make 64 '\000'; live = 0 }

let[@inline] is_live q seq = Bytes.unsafe_get q.flags seq = '\001'

(* The heap code indexes only positions below [len] and slots they hold,
   both within the columns' common length, so it skips the bounds checks.
   Declared as primitives, not bound to [Array.unsafe_get]: an alias would
   be a generic function call on every access. *)
external ( .%() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .%()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let[@inline] seq_at q i = q.seqs.%(q.slots.%(i))

(* Whether key [(time, seq)] sorts before the entry at heap position [i]. *)
let[@inline] key_before q (time : Sim_time.t) seq i =
  let t = (time :> int) and ti = (q.times.%(i) :> int) in
  t < ti || (t = ti && seq < seq_at q i)

let[@inline] entry_before q i j =
  let ti = (q.times.%(i) :> int) and tj = (q.times.%(j) :> int) in
  ti < tj || (ti = tj && seq_at q i < seq_at q j)

let[@inline] move q ~src ~dst =
  q.times.%(dst) <- q.times.%(src);
  q.slots.%(dst) <- q.slots.%(src)

let[@inline] place q i time slot =
  q.times.%(i) <- time;
  q.slots.%(i) <- slot

(* Hole-based sifts: the moving entry travels in arguments and is written
   exactly once, at its final position. *)
let sift_up q i time seq slot =
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key_before q time seq parent then begin
      move q ~src:parent ~dst:!i;
      i := parent
    end
    else moving := false
  done;
  place q !i time slot

let sift_down q i time seq slot =
  let i = ref i in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= q.len then moving := false
    else begin
      let r = l + 1 in
      let c = if r < q.len && entry_before q r l then r else l in
      (* Keys are unique: the child sorts first iff ours does not. *)
      if key_before q time seq c then moving := false
      else begin
        move q ~src:c ~dst:!i;
        i := c
      end
    end
  done;
  place q !i time slot

(* Doubles every column; the new slots go on the free stack, lowest on
   top. *)
let grow q =
  let cap = Array.length q.slots in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  q.times <- extend q.times Sim_time.zero;
  q.slots <- extend q.slots 0;
  q.seqs <- extend q.seqs 0;
  q.tags <- extend q.tags 0;
  q.args <- extend q.args 0;
  q.payloads <- extend q.payloads q.dummy;
  q.free <- extend q.free 0;
  for s = ncap - 1 downto cap do
    q.free.(q.free_top) <- s;
    q.free_top <- q.free_top + 1
  done

let add_tagged q ~time ~tag ~arg payload =
  let seq = q.next in
  q.next <- seq + 1;
  if q.free_top = 0 then grow q;
  q.free_top <- q.free_top - 1;
  let slot = q.free.(q.free_top) in
  q.seqs.(slot) <- seq;
  q.tags.(slot) <- tag;
  q.args.(slot) <- arg;
  q.payloads.(slot) <- payload;
  q.len <- q.len + 1;
  sift_up q (q.len - 1) time seq slot;
  if seq >= Bytes.length q.flags then begin
    let nf = Bytes.make (2 * Bytes.length q.flags) '\000' in
    Bytes.blit q.flags 0 nf 0 (Bytes.length q.flags);
    q.flags <- nf
  end;
  Bytes.unsafe_set q.flags seq '\001';
  q.live <- q.live + 1;
  seq

let add q ~time payload = add_tagged q ~time ~tag:0 ~arg:0 payload

let release q slot =
  q.payloads.(slot) <- q.dummy;
  q.free.(q.free_top) <- slot;
  q.free_top <- q.free_top + 1

(* Removes the entry at heap position [i] and frees its slot, re-seating
   the last entry in the hole. Flags and [live] are the caller's
   business. *)
let remove_at q i =
  release q q.slots.(i);
  let last = q.len - 1 in
  q.len <- last;
  if i < last then begin
    let time = q.times.(last) and slot = q.slots.(last) in
    let seq = q.seqs.(slot) in
    if i > 0 && key_before q time seq ((i - 1) / 2) then
      sift_up q i time seq slot
    else sift_down q i time seq slot
  end

(* Drops every cancelled entry and restores the heap bottom-up. Keys
   [(time, seq)] are unique, so the pop order is unchanged. *)
let compact q =
  let len = q.len in
  let j = ref 0 in
  for i = 0 to len - 1 do
    if is_live q (seq_at q i) then begin
      move q ~src:i ~dst:!j;
      incr j
    end
    else release q q.slots.(i)
  done;
  q.len <- !j;
  for i = (q.len / 2) - 1 downto 0 do
    sift_down q i q.times.(i) (seq_at q i) q.slots.(i)
  done

(* Compacts once cancelled entries outnumber live ones; below 64 dead
   entries the scan is not worth it. *)
let cancel q handle =
  if handle >= 0 && handle < q.next && is_live q handle then begin
    Bytes.unsafe_set q.flags handle '\000';
    q.live <- q.live - 1;
    let dead = q.len - q.live in
    if dead > q.live && dead >= 64 then compact q
  end

let rec ready q =
  q.len > 0
  && (is_live q (seq_at q 0)
     || begin
       remove_at q 0;
       ready q
     end)

let top_time q = q.times.(0)
let top_arg q = q.args.(q.slots.(0))

let pop_top q =
  let payload = q.payloads.(q.slots.(0)) in
  Bytes.unsafe_set q.flags (seq_at q 0) '\000';
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
let is_empty q = q.live = 0

(* Controlled-scheduling support (the model checker's view). These walk the
   heap columns, so they are O(len) / O(len log len) — irrelevant next to
   the cost of exploring an interleaving. *)

let live q =
  let acc = ref [] in
  for i = q.len - 1 downto 0 do
    let slot = q.slots.(i) in
    if is_live q q.seqs.(slot) then
      acc := (q.seqs.(slot), q.times.(i), q.tags.(slot)) :: !acc
  done;
  List.sort
    (fun (sa, ta, _) (sb, tb, _) ->
      let c = Sim_time.compare ta tb in
      if c <> 0 then c else Int.compare sa sb)
    !acc

let take q handle =
  if handle < 0 || handle >= q.next || not (is_live q handle) then None
  else begin
    let i = ref 0 in
    while seq_at q !i <> handle do
      incr i
    done;
    let slot = q.slots.(!i) in
    let entry = (q.times.(!i), q.args.(slot), q.payloads.(slot)) in
    Bytes.unsafe_set q.flags handle '\000';
    q.live <- q.live - 1;
    remove_at q !i;
    Some entry
  end
