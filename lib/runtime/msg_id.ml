type t = { origin : Net.Topology.pid; seq : int }

let make ~origin ~seq = { origin; seq }

let compare a b =
  let c = Int.compare a.origin b.origin in
  if c <> 0 then c else Int.compare a.seq b.seq

let[@inline] equal a b = a.origin = b.origin && a.seq = b.seq
let[@inline] hash a = (a.origin * 1_000_003) + a.seq
let pp ppf t = Fmt.pf ppf "m%d.%d" t.origin t.seq
let to_string t = Fmt.str "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

(* Stdlib's [Hashtbl] algorithm written out for this key type, so the hash
   and the equality are inline int arithmetic rather than functor closures.
   Layout and walk order match [Hashtbl.Make] exactly (see the .mli). *)
module Tbl = struct
  type key = t

  type 'a bucket =
    | Empty
    | Cons of { key : key; mutable data : 'a; mutable next : 'a bucket }

  type 'a t = {
    mutable size : int;
    mutable data : 'a bucket array; (* length is a power of two *)
    initial_size : int;
  }

  let rec power_2_above x n =
    if x >= n || x * 2 > Sys.max_array_length then x
    else power_2_above (x * 2) n

  let create n =
    let s = power_2_above 16 n in
    { size = 0; data = Array.make s Empty; initial_size = s }

  let reset h =
    h.size <- 0;
    if Array.length h.data = h.initial_size then
      Array.fill h.data 0 h.initial_size Empty
    else h.data <- Array.make h.initial_size Empty

  let length h = h.size

  let[@inline] index h k = hash k land (Array.length h.data - 1)

  (* Double the buckets in place: cells are re-linked, not copied, and each
     new chain keeps the relative order its cells had in the old walk. *)
  let resize h =
    let odata = h.data in
    let nsize = Array.length odata * 2 in
    let ndata = Array.make nsize Empty in
    let tails = Array.make nsize Empty in
    h.data <- ndata;
    let rec relink = function
      | Empty -> ()
      | Cons c as cell ->
        let next = c.next in
        let i = index h c.key in
        (match tails.(i) with
        | Empty -> ndata.(i) <- cell
        | Cons tail -> tail.next <- cell);
        tails.(i) <- cell;
        relink next
    in
    Array.iter relink odata;
    Array.iter (function Empty -> () | Cons tail -> tail.next <- Empty) tails

  let insert h i key data =
    h.data.(i) <- Cons { key; data; next = h.data.(i) };
    h.size <- h.size + 1;
    if h.size > 2 * Array.length h.data then resize h

  let add h key data = insert h (index h key) key data

  (* The chain walkers are closed functions taking every value they use as
     an argument: a local closure over the key would allocate per probe. *)
  let rec replace_in h i key data = function
    | Empty -> insert h i key data
    | Cons c ->
      if equal c.key key then c.data <- data
      else replace_in h i key data c.next

  let replace h key data =
    let i = index h key in
    replace_in h i key data h.data.(i)

  let rec remove_in h i key prev = function
    | Empty -> ()
    | Cons c as cell ->
      if equal c.key key then begin
        h.size <- h.size - 1;
        match prev with
        | Empty -> h.data.(i) <- c.next
        | Cons p -> p.next <- c.next
      end
      else remove_in h i key cell c.next

  let remove h key =
    let i = index h key in
    remove_in h i key Empty h.data.(i)

  let rec find_opt_in key = function
    | Empty -> None
    | Cons c -> if equal c.key key then Some c.data else find_opt_in key c.next

  let find_opt h key = find_opt_in key h.data.(index h key)

  let rec find_or_in key default = function
    | Empty -> default
    | Cons c -> if equal c.key key then c.data else find_or_in key default c.next

  let find_or h key ~default = find_or_in key default h.data.(index h key)

  let rec find_in key = function
    | Empty -> raise Not_found
    | Cons c -> if equal c.key key then c.data else find_in key c.next

  let find h key = find_in key h.data.(index h key)

  let rec mem_in key = function
    | Empty -> false
    | Cons c -> equal c.key key || mem_in key c.next

  let mem h key = mem_in key h.data.(index h key)

  let iter f h =
    let rec go = function
      | Empty -> ()
      | Cons c ->
        f c.key c.data;
        go c.next
    in
    Array.iter go h.data

  let fold f h init =
    let rec go acc = function
      | Empty -> acc
      | Cons c -> go (f c.key c.data acc) c.next
    in
    Array.fold_left go init h.data
end
