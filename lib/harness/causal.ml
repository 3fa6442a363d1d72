open Runtime

(* Event nodes are trace indices; the trace is chronological, so all edges
   point forward and a single left-to-right pass computes longest paths. *)

type t = {
  entries : Trace.entry array;
  (* program-order predecessor of each node (same process), -1 if first *)
  prev_on_pid : int array;
  (* for a Receive node, the index of its matching Send, -1 if none *)
  msg_src : int array;
  casts : int Msg_id.Tbl.t;
}

let kind_send = 0
let kind_receive = 1
let kind_cast = 2
let kind_other = 3
let actor node = (node lsr 2) land 0x3FFF_FFFF
let peer node = node lsr 32

(* The trace as flat int arrays, oldest first, so the passes below read
   sequential ints instead of one boxed entry per event: [node.(i)] holds
   the kind in bits 0-1, the acting pid (sender, receiver, caster) in
   bits 2-31 and, for a Send or Receive, its destination above; [link.(i)]
   is a Receive's matching Send (-1 elsewhere or if none). Also returns
   the id of each Cast entry, oldest first, and the number of pids. *)
let flatten trace =
  (* The trace keeps its entries newest first: fill the arrays from the
     back instead of reversing the list. On the way, find the largest pid
     and the envelope-id range, which size the per-pid and per-envelope
     arrays below; engine envelope ids come from a counter, so that range
     is dense. [link] holds each message's envelope id until the chains
     below replace it. *)
  let n = Trace.length trace in
  let node = Array.make n 0 and link = Array.make n (-1) in
  let cast_ids = ref [] in
  let max_pid = ref (-1) and env_lo = ref max_int and env_hi = ref min_int in
  let message i kind pid env dst =
    node.(i) <- (dst lsl 32) lor (pid lsl 2) lor kind;
    link.(i) <- env;
    max_pid := Int.max !max_pid (Int.max pid dst);
    env_lo := Int.min !env_lo env;
    env_hi := Int.max !env_hi env
  in
  let local i kind pid =
    node.(i) <- (pid lsl 2) lor kind;
    max_pid := Int.max !max_pid pid
  in
  List.iteri
    (fun k entry ->
      let i = n - 1 - k in
      match entry with
      | Trace.Send { src; dst; env; _ } -> message i kind_send src env dst
      | Trace.Receive { dst; env; _ } -> message i kind_receive dst env dst
      | Trace.Cast { pid; id; _ } ->
        local i kind_cast pid;
        cast_ids := id :: !cast_ids
      | Trace.Deliver { pid; _ } | Trace.Crash { pid; _ } ->
        local i kind_other pid)
    (Trace.entries_rev trace);
  if !max_pid >= 1 lsl 30 then invalid_arg "Causal: a pid is 2^30 or more";
  let n_pids = !max_pid + 1 in
  let n_envs = if !env_hi < !env_lo then 0 else !env_hi - !env_lo + 1 in
  (* Per envelope, the newest send and the newest receive; [link] chains
     each message to the next older one of the same envelope and kind,
     and is overwritten with the match as the chains are consumed. *)
  let sends = Array.make n_envs (-1) in
  let recvs = Array.make n_envs (-1) in
  for i = 0 to n - 1 do
    let kind = node.(i) land 3 in
    if kind = kind_send || kind = kind_receive then begin
      let heads = if kind = kind_send then sends else recvs in
      let e = link.(i) - !env_lo in
      link.(i) <- heads.(e);
      heads.(e) <- i
    end
  done;
  (* A receive matches the last send logged under its (env, dst), and only
     when that send precedes it: a send logged later cannot be its cause.
     Per envelope, mark the newest send to each destination, resolve the
     envelope's receives against the marks, then clear the marks and the
     sends' links. Each chain is walked a bounded number of times, so
     matching is O(sends + receives) however wide a broadcast fan-out is. *)
  let newest = Array.make n_pids (-1) in
  let rec mark s =
    if s >= 0 then begin
      let d = peer node.(s) in
      if newest.(d) < 0 then newest.(d) <- s;
      mark link.(s)
    end
  in
  let rec resolve r =
    if r >= 0 then begin
      let older = link.(r) in
      let s = newest.(peer node.(r)) in
      link.(r) <- (if s >= 0 && s < r then s else -1);
      resolve older
    end
  in
  let rec unmark s =
    if s >= 0 then begin
      let older = link.(s) in
      newest.(peer node.(s)) <- -1;
      link.(s) <- -1;
      unmark older
    end
  in
  for e = 0 to n_envs - 1 do
    if recvs.(e) >= 0 then begin
      mark sends.(e);
      resolve recvs.(e)
    end;
    unmark sends.(e)
  done;
  (node, link, !cast_ids, n_pids)

let of_trace trace =
  let node, msg_src, _, n_pids = flatten trace in
  let entries = Array.of_list (Trace.entries trace) in
  let prev_on_pid = Array.make (Array.length entries) (-1) in
  let last = Array.make n_pids (-1) in
  let casts = Msg_id.Tbl.create 64 in
  Array.iteri
    (fun i entry ->
      let pid = actor node.(i) in
      prev_on_pid.(i) <- last.(pid);
      last.(pid) <- i;
      match entry with
      | Trace.Cast { id; _ } ->
        if not (Msg_id.Tbl.mem casts id) then Msg_id.Tbl.replace casts id i
      | Trace.Send _ | Trace.Receive _ | Trace.Deliver _ | Trace.Crash _ -> ())
    entries;
  { entries; prev_on_pid; msg_src; casts }

(* Longest inter-group-hop distance from [root] to every node; [None] for
   causally unreachable nodes. *)
let distances t root =
  let n = Array.length t.entries in
  let dist = Array.make n None in
  dist.(root) <- Some 0;
  let relax target candidate =
    match (dist.(target), candidate) with
    | _, None -> ()
    | None, Some d -> dist.(target) <- Some d
    | Some cur, Some d -> if d > cur then dist.(target) <- Some d
  in
  for i = 0 to n - 1 do
    (* program-order edge from the previous event of the same process *)
    let p = t.prev_on_pid.(i) in
    if p >= 0 then relax i dist.(p);
    (* message edge into a receive, weighted by the send's group crossing *)
    let s = t.msg_src.(i) in
    if s >= 0 then
      relax i
        (match (dist.(s), t.entries.(s)) with
        | Some d, Trace.Send { inter_group; _ } ->
          Some (if inter_group then d + 1 else d)
        | _ -> None)
  done;
  dist

let latency_degree t id =
  match Msg_id.Tbl.find_opt t.casts id with
  | None -> None
  | Some root ->
    let dist = distances t root in
    (* the farthest causally reachable A-Deliver of [id] *)
    let best = ref None in
    Array.iteri
      (fun i entry ->
        match (entry, dist.(i)) with
        | Trace.Deliver { id = d; _ }, Some di when Msg_id.equal d id -> (
          match !best with
          | Some b when b >= di -> ()
          | _ -> best := Some di)
        | _ -> ())
      t.entries;
    !best

(* Cast clocks from one forward pass that counts Cast entries only. Each
   process holds a clock: per pid, how many of that pid's Cast entries
   lie in its causal past. A clock array is never mutated once a process
   holds it; a cast, or a receive that brings news, installs an updated
   copy, and a receive whose sender's clock covers the receiver's adopts
   that array. Installed clocks are numbered, and a send records the
   number of its sender's clock in its spent [link] slot, so a send costs
   one int write, not a copy. A receive of a clock its process has
   already absorbed (a small per-process cache of numbers) is skipped
   without comparing. Cast [a], the [c]-th Cast entry at [q],
   happened-before the root of [b] iff [clock_b.(q) >= c]: entry [q] only
   grows along program order and message edges. *)

type cast_clock = { id : Msg_id.t; caster : int; clock : int array }

let cast_clocks trace =
  let node, link, cast_ids, n_pids = flatten trace in
  let zero = Array.make n_pids 0 in
  let table = ref (Array.make 64 zero) and n_clocks = ref 1 in
  let number clock =
    if !n_clocks = Array.length !table then
      table := Array.append !table (Array.make !n_clocks zero);
    !table.(!n_clocks) <- clock;
    incr n_clocks;
    !n_clocks - 1
  in
  (* pid -> the number of its clock; all start at [zero], number 0 *)
  let cur = Array.make n_pids 0 and absorbed = Array.make (8 * n_pids) (-1) in
  let first = Msg_id.Tbl.create 64 and roots = ref [] and ids = ref cast_ids in
  for i = 0 to Array.length node - 1 do
    let p = actor node.(i) and kind = node.(i) land 3 in
    if kind = kind_send then link.(i) <- cur.(p)
    else if kind = kind_receive && link.(i) >= 0 then begin
      let no = link.(link.(i)) in
      let cached = (p lsl 3) lor (no land 7) in
      if no <> cur.(p) && absorbed.(cached) <> no then begin
        absorbed.(cached) <- no;
        let sent = !table.(no) and mine = !table.(cur.(p)) in
        let news = ref false and ahead = ref false in
        for k = 0 to n_pids - 1 do
          if sent.(k) > mine.(k) then news := true
          else if sent.(k) < mine.(k) then ahead := true
        done;
        if !news then
          cur.(p) <-
            (if !ahead then number (Array.map2 Int.max sent mine) else no)
      end
    end
    else if kind = kind_cast then begin
      let clock = Array.copy !table.(cur.(p)) in
      clock.(p) <- clock.(p) + 1;
      cur.(p) <- number clock;
      let id = List.hd !ids in
      ids := List.tl !ids;
      if not (Msg_id.Tbl.mem first id) then begin
        Msg_id.Tbl.replace first id ();
        roots := { id; caster = p; clock } :: !roots
      end
    end
  done;
  Array.of_list (List.rev !roots)

let causally_precedes t a b =
  match (Msg_id.Tbl.find_opt t.casts a, Msg_id.Tbl.find_opt t.casts b) with
  | Some ra, Some rb ->
    let dist = distances t ra in
    dist.(rb) <> None
  | _ -> false
