type t = int

let initial = 0
let on_local t = t
let on_send ~same_group t = if same_group then t else t + 1
let on_receive t ~carried = Int.max t carried

let latency_degree ~cast ~deliveries =
  match deliveries with
  | [] -> None
  | d :: ds -> Some (List.fold_left Int.max d ds - cast)
