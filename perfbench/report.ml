(* Sample statistics, the benchmark's own spans and the result line. *)

let now = Unix.gettimeofday

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))

let median xs = percentile 50. xs

(* The highest whole percentile that still has at least ten samples
   beyond it, if any: p99 needs 1000 samples, p90 needs 100. *)
let tail_pct n =
  if n <= 10 then None
  else Some (min 99 (100 * (n - 10) / n))

let summary_string ~unit xs =
  let n = List.length xs in
  match tail_pct n with
  | Some p ->
    Printf.sprintf "median %.4g %s, p%d %.4g %s (n=%d)" (median xs) unit p
      (percentile (float p) xs) unit n
  | None -> Printf.sprintf "median %.4g %s (n=%d)" (median xs) unit n

(* ---------- spans ---------- *)

(* Spans of the benchmark's own calls into the library, kept in memory and
   written to stderr when the run ends. Handler-level spans are folded
   into per-layer self times by {!Timed} instead of being kept one by
   one: a scale run opens millions of them. *)
type span = { id : int; name : string; start : float; stop : float; parent : int }

let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let recording = ref false

let timed name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let start = now () in
  let finish () =
    let stop = now () in
    stack := List.tl !stack;
    if !recording then spans := { id; name; start; stop; parent } :: !spans;
    stop -. start
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let dump_spans () =
  List.iter
    (fun s ->
      Printf.eprintf "span\t%d\t%d\t%s\t%.6f\t%.6f\n" s.id s.parent s.name
        s.start s.stop)
    (List.rev !spans)

(* ---------- result ---------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "%-34s %16.6f %s\n" x.name x.value x.unit)
    metrics;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: FAIL " ^ s);
      exit 1)
    fmt
