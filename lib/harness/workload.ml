open Des
open Net

type cast = {
  at : Sim_time.t;
  origin : Topology.pid;
  dest : Topology.gid list;
  payload : string;
}

type t = cast list

let single ?(payload = "m") ~at ~origin ~dest () =
  [ { at; origin; dest; payload } ]

let broadcast_single ?(payload = "m") ~at ~origin topology =
  [ { at; origin; dest = Topology.all_groups topology; payload } ]

type dest_kind =
  | To_all_groups
  | Random_groups of int
  | Fixed_groups of Topology.gid list
  | Zipfian_groups of { kmax : int; theta : float }

(* Zipf weights over ranks [0, n): rank r has weight 1/(r+1)^theta, so
   low ranks are hot and theta tunes the skew (0 = uniform). A table holds
   the running sums, built once per workload; a draw scans it linearly
   (topology-scale n only). *)
let zipf_table ~theta n =
  let acc = ref 0.0 in
  Array.init n (fun i ->
      acc := !acc +. (1.0 /. (float_of_int (i + 1) ** theta));
      !acc)

(* A Zipf-distributed rank; tables of one rank draw nothing. *)
let zipf_draw ~rng cum =
  let n = Array.length cum in
  if n <= 1 then 0
  else begin
    let x = Rng.float rng cum.(n - 1) in
    let rec find i = if i = n - 1 || x < cum.(i) then i else find (i + 1) in
    find 0
  end

(* [scratch] holds [n_groups] cells and is reused across casts;
   [zipf_groups] is the Zipf table over the groups under
   [Zipfian_groups]. *)
let pick_dest ~rng ~topology ~scratch ~zipf_groups = function
  | To_all_groups -> Topology.all_groups topology
  | Fixed_groups [] ->
    invalid_arg "Workload: Fixed_groups requires a non-empty group list"
  | Fixed_groups gs ->
    let m = Topology.n_groups topology in
    List.iter
      (fun g ->
        if g < 0 || g >= m then
          invalid_arg
            (Fmt.str
               "Workload: Fixed_groups includes group %d, outside the \
                topology's %d groups"
               g m))
      gs;
    gs
  | Random_groups k ->
    (* [Rng.sample_without_replacement] over [all_groups], draw for draw,
       without building the list and its array copy on every cast. *)
    let m = Array.length scratch in
    let k = max 1 (min k m) in
    let size = 1 + Rng.int rng k in
    for g = 0 to m - 1 do
      scratch.(g) <- g
    done;
    Rng.shuffle rng scratch;
    let rec take i acc =
      if i < 0 then acc else take (i - 1) (scratch.(i) :: acc)
    in
    take (min size m - 1) [] |> List.sort_uniq Int.compare
  | Zipfian_groups { kmax; _ } ->
    (* Placement skew: destination sets concentrate on low-ranked (hot)
       groups, like a workload with popular partitions. Distinct draws by
       rejection — deterministic under the seeded rng. *)
    let m = Array.length zipf_groups in
    let kmax = max 1 (min kmax m) in
    let size = 1 + Rng.int rng kmax in
    let chosen = Hashtbl.create 4 in
    while Hashtbl.length chosen < size do
      let g = zipf_draw ~rng zipf_groups in
      if not (Hashtbl.mem chosen g) then Hashtbl.replace chosen g ()
    done;
    Hashtbl.fold (fun g () acc -> g :: acc) chosen []
    |> List.sort_uniq Int.compare

type conflict_spec = { rate : float; keys : int; theta : float }

let conflict_spec ?(keys = 16) ?(theta = 0.8) rate =
  { rate = Float.min 1.0 (Float.max 0.0 rate); keys = max 1 keys; theta }

let generate ~rng ~topology ~n ~dest ~arrival ?(start = Sim_time.of_ms 1)
    ?origins ?origin_zipf ?conflict () =
  let origins =
    match origins with
    | Some (_ :: _ as l) -> Array.of_list l
    | Some [] | None -> Array.of_list (Topology.all_pids topology)
  in
  let pick_origin =
    match origin_zipf with
    | None -> fun () -> Rng.pick rng origins
    | Some theta ->
      (* Hot-origin skew: a few processes produce most of the load. *)
      let table = zipf_table ~theta (Array.length origins) in
      fun () -> origins.(zipf_draw ~rng table)
  in
  let key_table =
    match conflict with
    | Some { keys; theta; _ } -> zipf_table ~theta keys
    | None -> [||]
  in
  let payload_of i =
    match conflict with
    | None -> "m" ^ Int.to_string i
    | Some { rate; _ } ->
      (* The Conflict.payload_key convention: "k=<key>;<rest>" payloads
         conflict per key, anything else commutes with everything. Keys
         are Zipf-ranked so skew concentrates conflicts on hot keys. *)
      if Rng.float rng 1.0 < rate then
        "k=key"
        ^ Int.to_string (zipf_draw ~rng key_table)
        ^ ";m" ^ Int.to_string i
      else "m" ^ Int.to_string i
  in
  let scratch = Array.make (Topology.n_groups topology) 0 in
  let zipf_groups =
    match dest with
    | Zipfian_groups { theta; _ } ->
      zipf_table ~theta (Topology.n_groups topology)
    | To_all_groups | Random_groups _ | Fixed_groups _ -> [||]
  in
  let time = ref start in
  let burst_left = ref 0 in
  List.init n (fun i ->
      let at = !time in
      (match arrival with
      | `Every gap -> time := Sim_time.add !time gap
      | `Poisson mean ->
        let gap =
          Rng.exponential rng ~mean:(float_of_int (Sim_time.to_us mean))
        in
        time := Sim_time.add_us !time (max 1 (int_of_float gap))
      | `Bursty (mean_gap, burst_max) ->
        (* Open-loop bursty arrivals: bursts of 1..burst_max casts land at
           the same instant, with exponentially distributed gaps between
           bursts — the arrival shape that stresses batching. *)
        if !burst_left > 0 then decr burst_left
        else begin
          burst_left := Rng.int rng (max 1 burst_max);
          let gap =
            Rng.exponential rng
              ~mean:(float_of_int (Sim_time.to_us mean_gap))
          in
          time := Sim_time.add_us !time (max 1 (int_of_float gap))
        end);
      {
        at;
        origin = pick_origin ();
        dest = pick_dest ~rng ~topology ~scratch ~zipf_groups dest;
        payload = payload_of i;
      })
