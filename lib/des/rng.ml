(* The SplitMix64 state lives unboxed in 8 bytes: a draw reads and writes
   it with [Bytes.get_int64_ne]/[set_int64_ne], so with [int64] and
   [mix64] inlined it allocates no boxed [int64] and writes no pointer, and
   so passes no write barrier. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (int64 t)

let substream seed i =
  if i < 0 then invalid_arg "Rng.substream: index must be >= 0";
  (* Mix the seed before combining with the stream index so neighbouring
     (seed, i) pairs land far apart in the state space; the golden-gamma
     multiple is the same stream spacing SplitMix64 itself uses. *)
  of_state
    (mix64 (Int64.add (mix64 (Int64.of_int seed))
              (Int64.mul golden_gamma (Int64.of_int (i + 1)))))

let copy = Bytes.copy

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t n xs =
  let arr = Array.of_list xs in
  shuffle t arr;
  let n = Stdlib.min n (Array.length arr) in
  Array.to_list (Array.sub arr 0 n)
