type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let push t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nd = Array.make ncap x in
    Array.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let to_list t = List.init t.len (fun i -> t.data.(i))
