type pid = int
type gid = int

type t = {
  group_of : gid array; (* indexed by pid *)
  members : pid array array; (* indexed by gid *)
}

let make ~sizes =
  if sizes = [] then invalid_arg "Topology.make: no groups";
  List.iter
    (fun d -> if d <= 0 then invalid_arg "Topology.make: empty group")
    sizes;
  let n = List.fold_left ( + ) 0 sizes in
  let group_of = Array.make n 0 in
  let members =
    Array.of_list
      (List.mapi
         (fun _ d -> Array.make d 0)
         sizes)
  in
  let pid = ref 0 in
  List.iteri
    (fun g d ->
      for i = 0 to d - 1 do
        group_of.(!pid) <- g;
        members.(g).(i) <- !pid;
        incr pid
      done)
    sizes;
  { group_of; members }

let symmetric ~groups ~per_group =
  make ~sizes:(List.init groups (fun _ -> per_group))

let n_processes t = Array.length t.group_of
let n_groups t = Array.length t.members
let group_of t p = t.group_of.(p)
let members t g = Array.to_list t.members.(g)
let members_array t g = t.members.(g)
let iter_members t g f = Array.iter f t.members.(g)
let group_size t g = Array.length t.members.(g)
let all_pids t = List.init (n_processes t) Fun.id
let all_groups t = List.init (n_groups t) Fun.id
let same_group t p q = t.group_of.(p) = t.group_of.(q)

(* Destination lists arrive sorted (a [Msg.t]'s [dest] always is), so the
   sort is skipped when it would change nothing; pids are numbered group
   by group, so ascending groups give ascending pids. The list is built
   back to front, one cons cell per pid. *)
let pids_of_groups t gs =
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  let gs = if increasing gs then gs else List.sort_uniq Int.compare gs in
  let rec build = function
    | [] -> []
    | g :: rest ->
      let acc = ref (build rest) in
      let m = t.members.(g) in
      for i = Array.length m - 1 downto 0 do
        acc := m.(i) :: !acc
      done;
      !acc
  in
  build gs
