type t = int

let zero = 0

let of_us n =
  if n < 0 then invalid_arg "Sim_time.of_us: negative" else n

let of_ms n = of_us (n * 1_000)

let of_sec s =
  if s < 0. then invalid_arg "Sim_time.of_sec: negative"
  else int_of_float (s *. 1_000_000.)

let to_us t = t
let to_ms_float t = float_of_int t /. 1_000.
let add a b = a + b
let add_us t n = Int.max 0 (t + n)
let diff a b = a - b
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : t) (b : t) = a <= b
let ( < ) (a : t) (b : t) = a < b
let ( >= ) (a : t) (b : t) = a >= b
let min = Int.min
let max = Int.max
let infinity = max_int / 2

let pp ppf t =
  if t = infinity then Fmt.string ppf "+inf"
  else Fmt.pf ppf "%.3fms" (to_ms_float t)

let to_string t = Fmt.str "%a" pp t
