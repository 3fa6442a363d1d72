let mean = function
  | [] -> None
  | xs ->
    Some (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))

let stddev xs =
  match (xs, mean xs) with
  | x0 :: _ :: _, Some m ->
    ignore x0;
    let n = float_of_int (List.length xs) in
    let ss =
      List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs
    in
    Some (sqrt (ss /. (n -. 1.)))
  | _ -> None

let sorted xs = List.sort Float.compare xs

let percentile p xs =
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  match sorted xs with
  | [] -> None
  | s ->
    let n = List.length s in
    let rank =
      int_of_float (ceil (p /. 100. *. float_of_int n)) |> max 1 |> min n
    in
    Some (List.nth s (rank - 1))

let median xs = percentile 50. xs

let min_max = function
  | [] -> None
  | x :: xs ->
    Some
      (List.fold_left
         (fun (lo, hi) v -> (Float.min lo v, Float.max hi v))
         (x, x) xs)

let histogram ~buckets xs =
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets must be positive";
  match min_max xs with
  | None -> []
  | Some (lo, hi) ->
    let width =
      if hi > lo then (hi -. lo) /. float_of_int buckets else 1.
    in
    let counts = Array.make buckets 0 in
    List.iter
      (fun x ->
        let b =
          min (buckets - 1) (int_of_float ((x -. lo) /. width))
        in
        counts.(b) <- counts.(b) + 1)
      xs;
    List.init buckets (fun b -> (lo +. (float_of_int b *. width), counts.(b)))
