(* Host speed. The benchmark runs on shared virtual machines whose speed
   drifts by a third over minutes, so the gated times are scaled by a
   reference kernel timed around each iteration. *)

let now = Unix.gettimeofday

(* The reference kernel: a fixed mix of what the simulator does (a binary
   heap of timed closures, an int map and a hash table, all allocating),
   written here so that no change to the library can speed it up. Its
   time tracks how fast the shared host runs the process at that moment. *)
module IM = Map.Make (Int)

let reference_kernel () =
  let t0 = now () in
  let st = Random.State.make [| 42 |] in
  (* a binary heap of timed closures, like an event queue *)
  let heap = Array.make 65536 (0., fun () -> ()) and n = ref 0 in
  let push x =
    let i = ref !n in
    incr n;
    heap.(!i) <- x;
    while !i > 0 && fst heap.((!i - 1) / 2) > fst heap.(!i) do
      let p = (!i - 1) / 2 in
      let t = heap.(p) in
      heap.(p) <- heap.(!i);
      heap.(!i) <- t;
      i := p
    done
  in
  let pop () =
    let top = heap.(0) in
    decr n;
    heap.(0) <- heap.(!n);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = 2 * !i + 1 in
      let c = if l + 1 < !n && fst heap.(l + 1) < fst heap.(l) then l + 1 else l in
      if c < !n && fst heap.(c) < fst heap.(!i) then begin
        let t = heap.(c) in
        heap.(c) <- heap.(!i);
        heap.(!i) <- t;
        i := c
      end
      else continue := false
    done;
    top
  in
  let m = ref IM.empty and h = Hashtbl.create 1024 and acc = ref 0 in
  for i = 1 to 30_000 do
    push (Random.State.float st 1.0, fun () -> acc := !acc + i)
  done;
  for i = 1 to 60_000 do
    let t, f = pop () in
    f ();
    push (t +. Random.State.float st 1.0, fun () -> acc := !acc + i);
    let k = Random.State.int st 200_000 in
    m := IM.add k [ i; k ] !m;
    (match Hashtbl.find_opt h k with
     | Some v -> acc := !acc + v
     | None -> Hashtbl.replace h k i);
    if i land 3 = 0 then m := IM.remove (Random.State.int st 200_000) !m
  done;
  ignore (Sys.opaque_identity (!acc, IM.cardinal !m));
  now () -. t0

(* The kernel's median time on the host the bounds were measured on
   (2-CPU Xeon VM, OCaml 5.1.1). A scaled figure is what the run would have
   measured had the host run the kernel in exactly this time. *)
let nominal_s = 0.107

(* [f ()] from a collected heap, with the mean of kernel readings taken
   just before and just after it. *)
let calibrated f =
  Gc.full_major ();
  let before = reference_kernel () in
  Gc.full_major ();
  let v = f () in
  Gc.full_major ();
  (v, (before +. reference_kernel ()) /. 2.)

let scale_time ~kernel t = t *. nominal_s /. kernel
let scale_rate ~kernel r = r *. kernel /. nominal_s
