let mean = function
  | [] -> None
  | xs ->
    Some (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))

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
