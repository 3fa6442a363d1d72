(* The slot of key [k] is [k land (capacity - 1)]; [keys] holds the key
   that occupies each slot, or -1. Two live keys that share a slot double
   the ring and re-seat every entry. *)
type 'a t = {
  mutable keys : int array; (* -1 = slot empty *)
  mutable vals : 'a option array;
  mutable live : int;
}

let create () =
  { keys = Array.make 8 (-1); vals = Array.make 8 None; live = 0 }

let rec grow t =
  let cap = Array.length t.keys in
  let old_keys = t.keys and old_vals = t.vals in
  t.keys <- Array.make (2 * cap) (-1);
  t.vals <- Array.make (2 * cap) None;
  t.live <- 0;
  Array.iteri
    (fun i k -> if k >= 0 then set t k (Option.get old_vals.(i)))
    old_keys

and set t k v =
  if k < 0 then invalid_arg "Window.set: negative key";
  let slot = k land (Array.length t.keys - 1) in
  let occupant = t.keys.(slot) in
  if occupant >= 0 && occupant <> k then begin
    grow t;
    set t k v
  end
  else begin
    if occupant < 0 then t.live <- t.live + 1;
    t.keys.(slot) <- k;
    t.vals.(slot) <- Some v
  end

let find t k =
  if k < 0 then None
  else
    let slot = k land (Array.length t.keys - 1) in
    if t.keys.(slot) = k then t.vals.(slot) else None

let take t k =
  if k < 0 then None
  else begin
    let slot = k land (Array.length t.keys - 1) in
    if t.keys.(slot) = k then begin
      let v = t.vals.(slot) in
      t.keys.(slot) <- -1;
      t.vals.(slot) <- None;
      t.live <- t.live - 1;
      v
    end
    else None
  end

let drop t k = ignore (take t k)
let live t = t.live

let fold f t acc =
  let bindings = ref [] in
  Array.iteri
    (fun slot k ->
      if k >= 0 then bindings := (k, Option.get t.vals.(slot)) :: !bindings)
    t.keys;
  List.fold_left
    (fun acc (k, v) -> f k v acc)
    acc
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) !bindings)

let iter f t = fold (fun k v () -> f k v) t ()
