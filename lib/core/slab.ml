(* Flat, reusable protocol-state containers for the steady-state delivery
   hot path. The per-pending [Hashtbl]s the protocols started with allocate
   buckets on every insert and churn the minor heap at hundred-group scale;
   these replace them with the flag-byte + slab idiom the DES already uses
   (Des.Event_queue, Network's in-flight slab): presence is one byte, values
   live in preallocated arrays, and released rows go back to a free list so
   the steady state allocates nothing. *)

module Row = struct
  type 'a t = {
    vals : 'a array; (* [width] slots, meaningful only where present *)
    present : Bytes.t; (* '\001' = slot holds a value *)
    mutable touched : int array; (* first [count] entries: set slot indices *)
    mutable count : int;
  }

  type 'a pool = {
    width : int;
    default : 'a;
    mutable free : 'a t array;
    mutable free_top : int;
  }

  let pool ~width ~default =
    if width <= 0 then invalid_arg "Slab.Row.pool: width must be > 0";
    { width; default; free = [||]; free_top = 0 }

  let width p = p.width

  let acquire p =
    if p.free_top > 0 then begin
      p.free_top <- p.free_top - 1;
      p.free.(p.free_top)
    end
    else
      {
        vals = Array.make p.width p.default;
        present = Bytes.make p.width '\000';
        touched = Array.make 8 0;
        count = 0;
      }

  (* Clearing walks only the touched slots, so release is O(values set),
     not O(width) — a row that collected 3 proposals out of 100 groups
     costs 3 writes to scrub. *)
  let release p r =
    for i = 0 to r.count - 1 do
      let slot = r.touched.(i) in
      Bytes.unsafe_set r.present slot '\000';
      r.vals.(slot) <- p.default
    done;
    r.count <- 0;
    if p.free_top >= Array.length p.free then begin
      let cap = Array.length p.free in
      let nf = Array.make (if cap = 0 then 8 else 2 * cap) r in
      Array.blit p.free 0 nf 0 cap;
      p.free <- nf
    end;
    p.free.(p.free_top) <- r;
    p.free_top <- p.free_top + 1

  let mem r i = Bytes.unsafe_get r.present i = '\001'

  let set r i v =
    if not (mem r i) then begin
      Bytes.unsafe_set r.present i '\001';
      if r.count >= Array.length r.touched then begin
        let nt = Array.make (2 * Array.length r.touched) 0 in
        Array.blit r.touched 0 nt 0 r.count;
        r.touched <- nt
      end;
      r.touched.(r.count) <- i;
      r.count <- r.count + 1
    end;
    r.vals.(i) <- v

  let get r ~default i = if mem r i then r.vals.(i) else default
  let find r i = if mem r i then Some r.vals.(i) else None
  let count r = r.count
end
