(* Overlay graphs over the group ids (see overlay.mli). Everything is
   derived eagerly at construction: routing tables, per-pair distances
   and hop counts, so deploy-time consumers only do array reads. *)

type edge_class = Metro | Continental | Intercontinental

(* Jitter-free one-way delay of a link of this class. The
   Intercontinental delay equals [Latency.wan_default]'s inter-group base,
   so a clique overlay reproduces the classic WAN model. *)
let class_delay_us = function
  | Metro -> 5_000
  | Continental -> 20_000
  | Intercontinental -> 50_000

type kind = Clique | Hub | Ring | Tree | Custom

let kind_name = function
  | Clique -> "clique"
  | Hub -> "hub"
  | Ring -> "ring"
  | Tree -> "tree"
  | Custom -> "custom"

let kind_of_name = function
  | "clique" -> Some Clique
  | "hub" -> Some Hub
  | "ring" -> Some Ring
  | "tree" -> Some Tree
  | _ -> None

type t = {
  groups : int;
  kind : kind;
  edges : (Topology.gid * Topology.gid * edge_class) list;
  adj : (Topology.gid * edge_class) list array;
  next : Topology.gid array array; (* next.(s).(d): first hop after s *)
  dist : int array array; (* summed class delay of the route, us *)
  hop : int array array; (* links on the route *)
  crossings : int array array; (* Intercontinental links on the route *)
}

let inf = max_int / 4

(* Deterministic route preference: shortest summed delay, then fewest
   hops, then the lexicographically smallest next-hop — so every process
   (and every session) derives identical routing tables. *)
let better (d1, h1, n1) (d2, h2, n2) =
  d1 < d2 || (d1 = d2 && (h1 < h2 || (h1 = h2 && n1 < n2)))

let of_edges ?(kind = Custom) ~groups edge_list =
  if groups <= 0 then invalid_arg "Net.Overlay: groups must be positive";
  let canon (a, b, c) =
    if a < 0 || a >= groups || b < 0 || b >= groups then
      invalid_arg
        (Printf.sprintf "Net.Overlay: edge (%d, %d) outside [0, %d)" a b
           groups);
    if a = b then
      invalid_arg (Printf.sprintf "Net.Overlay: self-loop on group %d" a);
    if a < b then (a, b, c) else (b, a, c)
  in
  let edges =
    List.map canon edge_list
    |> List.sort_uniq (fun (a1, b1, c1) (a2, b2, c2) ->
           compare (a1, b1, c1) (a2, b2, c2))
  in
  (* Same pair surviving dedup twice = two different classes. *)
  let rec check_dup = function
    | (a1, b1, _) :: ((a2, b2, _) :: _ as rest) ->
      if a1 = a2 && b1 = b2 then
        invalid_arg
          (Printf.sprintf
             "Net.Overlay: edge (%d, %d) given with two latency classes" a1 b1);
      check_dup rest
    | _ -> ()
  in
  check_dup edges;
  let adj = Array.make groups [] in
  List.iter
    (fun (a, b, c) ->
      adj.(a) <- (b, c) :: adj.(a);
      adj.(b) <- (a, c) :: adj.(b))
    edges;
  Array.iteri
    (fun g l -> adj.(g) <- List.sort (fun (a, _) (b, _) -> compare a b) l)
    adj;
  let dist = Array.make_matrix groups groups inf in
  let hop = Array.make_matrix groups groups inf in
  let crossings = Array.make_matrix groups groups 0 in
  let next = Array.make_matrix groups groups (-1) in
  for g = 0 to groups - 1 do
    dist.(g).(g) <- 0;
    hop.(g).(g) <- 0;
    next.(g).(g) <- g
  done;
  List.iter
    (fun (a, b, c) ->
      let d = class_delay_us c in
      let x = if c = Intercontinental then 1 else 0 in
      dist.(a).(b) <- d;
      dist.(b).(a) <- d;
      hop.(a).(b) <- 1;
      hop.(b).(a) <- 1;
      crossings.(a).(b) <- x;
      crossings.(b).(a) <- x;
      next.(a).(b) <- b;
      next.(b).(a) <- a)
    edges;
  (* Floyd–Warshall over (delay, hops, next-hop id); the comparison makes
     the tables a pure function of the edge set. [k] must be a proper
     interior point: with [k = i] the candidate tuple reuses
     [next.(i).(i) = i] and its low id would win delay/hop ties,
     corrupting [next.(i).(j)] into the source itself. *)
  for k = 0 to groups - 1 do
    for i = 0 to groups - 1 do
      if k <> i && dist.(i).(k) < inf then
        for j = 0 to groups - 1 do
          if k <> j && dist.(k).(j) < inf then begin
            let d = dist.(i).(k) + dist.(k).(j) in
            let h = hop.(i).(k) + hop.(k).(j) in
            let n = next.(i).(k) in
            if
              i <> j
              && better (d, h, n) (dist.(i).(j), hop.(i).(j), next.(i).(j))
            then begin
              dist.(i).(j) <- d;
              hop.(i).(j) <- h;
              crossings.(i).(j) <- crossings.(i).(k) + crossings.(k).(j);
              next.(i).(j) <- n
            end
          end
        done
    done
  done;
  for i = 0 to groups - 1 do
    for j = 0 to groups - 1 do
      if dist.(i).(j) >= inf then
        invalid_arg
          (Printf.sprintf
             "Net.Overlay: groups %d and %d are not connected by the overlay"
             i j)
    done
  done;
  { groups; kind; edges; adj; next; dist; hop; crossings }

let clique ~groups =
  let edges = ref [] in
  for a = 0 to groups - 1 do
    for b = a + 1 to groups - 1 do
      edges := (a, b, Intercontinental) :: !edges
    done
  done;
  of_edges ~kind:Clique ~groups !edges

let hub ~groups =
  of_edges ~kind:Hub ~groups
    (List.init (max 0 (groups - 1)) (fun i -> (0, i + 1, Intercontinental)))

let ring ~groups =
  if groups < 3 then
    invalid_arg "Net.Overlay.ring: needs at least 3 groups to form a cycle";
  of_edges ~kind:Ring ~groups
    (List.init groups (fun i -> (i, (i + 1) mod groups, Continental)))

let tree ~groups =
  of_edges ~kind:Tree ~groups
    (List.init (max 0 (groups - 1)) (fun i ->
         let child = i + 1 in
         let parent = (child - 1) / 2 in
         ( parent,
           child,
           if parent = 0 then Intercontinental else Continental )))

let of_kind k ~groups =
  match k with
  | Clique -> clique ~groups
  | Hub -> hub ~groups
  | Ring -> ring ~groups
  | Tree -> tree ~groups
  | Custom ->
    invalid_arg "Net.Overlay.of_kind: a custom overlay needs an edge list"

let groups t = t.groups
let kind t = t.kind
let edges t = t.edges
let neighbors t g = List.map fst t.adj.(g)

let is_clique t =
  let ok = ref true in
  for i = 0 to t.groups - 1 do
    for j = 0 to t.groups - 1 do
      if i <> j && t.hop.(i).(j) > 1 then ok := false
    done
  done;
  !ok

let next_hop t ~src ~dst = t.next.(src).(dst)
let hops t ~src ~dst = t.hop.(src).(dst)
let dist_us t ~src ~dst = t.dist.(src).(dst)
let inter_crossings t ~src ~dst = t.crossings.(src).(dst)

let route t ~src ~dst =
  let rec walk g acc =
    if g = dst then List.rev (dst :: acc)
    else walk t.next.(g).(dst) (g :: acc)
  in
  walk src []

let path_groups t ~src ~dsts =
  List.concat_map (fun d -> route t ~src ~dst:d) dsts
  |> List.cons src |> List.sort_uniq Int.compare

let participants t ~src ~dsts =
  let between =
    let rec pairs = function
      | [] -> []
      | d1 :: rest ->
        List.concat_map (fun d2 -> route t ~src:d1 ~dst:d2) rest @ pairs rest
    in
    pairs (List.sort_uniq Int.compare dsts)
  in
  path_groups t ~src ~dsts @ between |> List.sort_uniq Int.compare

(* Connectivity of the overlay with one edge removed: the bridge test
   behind [cut_edges] and [side_of_cut]. Overlays are small (tens of
   groups), so a BFS per edge is fine. *)
let reachable_without t ~cut:(ca, cb) start =
  let seen = Array.make t.groups false in
  let queue = Queue.create () in
  Queue.add start queue;
  seen.(start) <- true;
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    List.iter
      (fun (n, _) ->
        let is_cut = (g = ca && n = cb) || (g = cb && n = ca) in
        if (not is_cut) && not seen.(n) then begin
          seen.(n) <- true;
          Queue.add n queue
        end)
      t.adj.(g)
  done;
  seen

let cut_edges t =
  List.filter_map
    (fun (a, b, _) ->
      let seen = reachable_without t ~cut:(a, b) a in
      if seen.(b) then None else Some (a, b))
    t.edges

let side_of_cut t ~cut:(a, b) =
  let seen = reachable_without t ~cut:(a, b) a in
  if seen.(b) then
    invalid_arg
      (Printf.sprintf "Net.Overlay.side_of_cut: (%d, %d) is not a bridge" a b);
  let side_a = ref [] and side_b = ref [] in
  for g = t.groups - 1 downto 0 do
    if seen.(g) then side_a := g :: !side_a else side_b := g :: !side_b
  done;
  (!side_a, !side_b)

let to_latency ?(jitter = Des.Sim_time.zero)
    ?(intra = Des.Sim_time.of_ms 1) t =
  let inter =
    Array.init t.groups (fun a ->
        Array.init t.groups (fun b ->
            Des.Sim_time.of_us t.dist.(a).(b)))
  in
  Latency.matrix ~jitter ~intra ~inter ()

let check_topology t topo =
  let m = Topology.n_groups topo in
  if m <> t.groups then
    invalid_arg
      (Printf.sprintf
         "Net.Overlay: overlay covers %d groups but the topology has %d"
         t.groups m)
