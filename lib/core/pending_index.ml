type handle = int

type 'a entry = {
  ts : int;
  id : Runtime.Msg_id.t;
  handle : int;
  payload : 'a;
}

(* Same liveness scheme as Des.Event_queue: [flags] holds one byte per
   issued handle (1 = live), [live] counts the set bits. Removal flips the
   byte; the heap slot stays behind as a dead entry and is discarded when
   it surfaces at the root — or swept out wholesale by [compact] once dead
   entries outnumber live ones, which keeps [to_sorted_list] linear in the
   live set rather than in the all-time insert count. *)
type 'a t = {
  mutable heap : 'a entry array;
  mutable len : int;
  mutable next_handle : int;
  mutable flags : Bytes.t;
  mutable live : int;
}

let create () =
  { heap = [||]; len = 0; next_handle = 0;
    flags = Bytes.make 64 '\000'; live = 0 }

let entry_lt a b =
  let c = Int.compare a.ts b.ts in
  if c <> 0 then c < 0 else Runtime.Msg_id.compare a.id b.id < 0

let is_live q (e : _ entry) = Bytes.unsafe_get q.flags e.handle = '\001'

let grow q =
  let cap = Array.length q.heap in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let dummy = q.heap.(0) in
  let nh = Array.make ncap dummy in
  Array.blit q.heap 0 nh 0 q.len;
  q.heap <- nh

let sift_up q i e =
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if entry_lt e q.heap.(parent) then begin
      q.heap.(!i) <- q.heap.(parent);
      i := parent
    end
    else moving := false
  done;
  q.heap.(!i) <- e

let sift_down_from q start e =
  let i = ref start in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= q.len then moving := false
    else begin
      let r = l + 1 in
      let c = if r < q.len && entry_lt q.heap.(r) q.heap.(l) then r else l in
      if entry_lt q.heap.(c) e then begin
        q.heap.(!i) <- q.heap.(c);
        i := c
      end
      else moving := false
    end
  done;
  q.heap.(!i) <- e

(* Drop every dead slot and re-heapify bottom-up: O(live). Called only
   when dead > live + threshold, so the cost amortises to O(1) per
   removal. *)
let compact q =
  let w = ref 0 in
  for r = 0 to q.len - 1 do
    let e = q.heap.(r) in
    if is_live q e then begin
      q.heap.(!w) <- e;
      incr w
    end
  done;
  q.len <- !w;
  for i = (q.len / 2) - 1 downto 0 do
    sift_down_from q i q.heap.(i)
  done

let maybe_compact q = if q.len > (2 * q.live) + 16 then compact q

let add q ~ts ~id payload =
  let handle = q.next_handle in
  q.next_handle <- handle + 1;
  let e = { ts; id; handle; payload } in
  if q.len = 0 && Array.length q.heap = 0 then q.heap <- Array.make 16 e;
  if q.len >= Array.length q.heap then grow q;
  q.len <- q.len + 1;
  sift_up q (q.len - 1) e;
  if handle >= Bytes.length q.flags then begin
    let ncap = max (2 * Bytes.length q.flags) (handle + 1) in
    let nf = Bytes.make ncap '\000' in
    Bytes.blit q.flags 0 nf 0 (Bytes.length q.flags);
    q.flags <- nf
  end;
  Bytes.unsafe_set q.flags handle '\001';
  q.live <- q.live + 1;
  handle

let remove q handle =
  if handle >= 0 && handle < q.next_handle
     && Bytes.unsafe_get q.flags handle = '\001'
  then begin
    Bytes.unsafe_set q.flags handle '\000';
    q.live <- q.live - 1;
    maybe_compact q
  end

let reposition q handle ~ts ~id payload =
  remove q handle;
  add q ~ts ~id payload

let pop_entry q =
  let e = q.heap.(0) in
  q.len <- q.len - 1;
  if q.len > 0 then sift_down_from q 0 q.heap.(q.len);
  e

(* Discards dead entries from the root; true iff a live one is left
   there. *)
let rec settle q =
  q.len > 0
  && (is_live q q.heap.(0)
     || begin
       ignore (pop_entry q);
       settle q
     end)

let min_elt q =
  if settle q then
    let e = q.heap.(0) in
    Some (e.ts, e.id, e.payload)
  else None

let top q ~none = if settle q then q.heap.(0).payload else none

let drop_top q =
  if settle q then begin
    let e = pop_entry q in
    Bytes.unsafe_set q.flags e.handle '\000';
    q.live <- q.live - 1
  end

let size q = q.live
let is_empty q = q.live = 0

let to_sorted_list q =
  let acc = ref [] in
  for i = 0 to q.len - 1 do
    let e = q.heap.(i) in
    if is_live q e then acc := e :: !acc
  done;
  List.sort
    (fun a b ->
      let c = Int.compare a.ts b.ts in
      if c <> 0 then c else Runtime.Msg_id.compare a.id b.id)
    !acc
  |> List.map (fun e -> (e.ts, e.id, e.payload))
