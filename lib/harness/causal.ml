open Runtime

(* Event nodes are trace indices; the trace is chronological, so all edges
   point forward and a single left-to-right pass computes longest paths. *)

type t = {
  entries : Trace.entry array;
  (* program-order predecessor of each node (same process), -1 if first *)
  prev_on_pid : int array;
  (* dense process index of each node, in order of first appearance *)
  proc : int array;
  n_procs : int;
  (* for a Receive node, the index of its matching Send, -1 if none *)
  msg_src : int array;
  casts : int Msg_id.Tbl.t;
}

(* Sends keyed by (env, dst). A broadcast fan-out shares one envelope
   across its destinations, so the pair is unique per delivery. *)
module Env_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal ((e1 : int), (d1 : int)) (e2, d2) = e1 = e2 && d1 = d2
  let hash ((env : int), (dst : int)) = (env * 65599) + dst
end)

module Pid_tbl = Hashtbl.Make (Int)

let pid_of_entry = function
  | Trace.Send { src; _ } -> src
  | Trace.Receive { dst; _ } -> dst
  | Trace.Cast { pid; _ }
  | Trace.Deliver { pid; _ }
  | Trace.Crash { pid; _ } ->
    pid

let of_trace trace =
  let entries = Array.of_list (Trace.entries trace) in
  let n = Array.length entries in
  let prev_on_pid = Array.make n (-1) in
  let proc = Array.make n 0 in
  let msg_src = Array.make n (-1) in
  let send_of_env = Env_tbl.create (max 16 (n / 2)) in
  let casts = Msg_id.Tbl.create 64 in
  (* pid -> (dense index, last node of that pid) *)
  let procs = Pid_tbl.create 16 in
  Array.iteri
    (fun i entry ->
      (let pid = pid_of_entry entry in
       match Pid_tbl.find procs pid with
       | k, last ->
         proc.(i) <- k;
         prev_on_pid.(i) <- !last;
         last := i
       | exception Not_found ->
         let k = Pid_tbl.length procs in
         proc.(i) <- k;
         Pid_tbl.replace procs pid (k, ref i));
      match entry with
      | Trace.Send { env; dst; _ } ->
        (* [add] shadows an earlier binding, so lookups see the last send *)
        Env_tbl.add send_of_env (env, dst) i
      | Trace.Cast { id; _ } ->
        if not (Msg_id.Tbl.mem casts id) then Msg_id.Tbl.replace casts id i
      | Trace.Receive _ | Trace.Deliver _ | Trace.Crash _ -> ())
    entries;
  (* A receive matches the last send logged under its (env, dst), and only
     when that send precedes it: a send logged later cannot be its cause. *)
  Array.iteri
    (fun i entry ->
      match entry with
      | Trace.Receive { env; dst; _ } -> (
        match Env_tbl.find_opt send_of_env (env, dst) with
        | Some s when s < i -> msg_src.(i) <- s
        | Some _ | None -> ())
      | Trace.Send _ | Trace.Cast _ | Trace.Deliver _ | Trace.Crash _ -> ())
    entries;
  { entries; prev_on_pid; proc; n_procs = Pid_tbl.length procs; msg_src; casts }

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

(* All-pairs cast reachability as bitset rows, from one forward pass that
   keeps a vector clock per process: every event ticks its own process's
   entry, a Send keeps a copy of the sender's clock, and a Receive first
   merges the copy kept by its matching send. Cast [a] at process [pa]
   with own counter [cnt_a] happened-before event [e] iff
   [vc_e.(pa) >= cnt_a], since entry [pa] only grows along program order
   and message edges. The pass costs O(trace * processes) time and memory
   and the row fill O(casts^2), against O(casts * trace) for one
   [distances] traversal per cast. Rows pack 63 cast indices per word,
   which lets the causal checker intersect "everything this cast
   precedes" with "everything delivered so far" a word at a time. *)

type reachability = {
  r_ids : Msg_id.t array;
  r_index : (Msg_id.t, int) Hashtbl.t;
  r_words : int;
  r_succ : int array array;
}

let cast_reachability t ids =
  let dedup = Hashtbl.create 16 in
  let nodes = ref [] in
  List.iter
    (fun id ->
      if not (Hashtbl.mem dedup id) then begin
        Hashtbl.replace dedup id ();
        match Msg_id.Tbl.find_opt t.casts id with
        | Some node -> nodes := (id, node) :: !nodes
        | None -> ()
      end)
    ids;
  let pairs = Array.of_list (List.rev !nodes) in
  let n = Array.length pairs in
  let r_ids = Array.map fst pairs in
  let r_index = Hashtbl.create (max 16 n) in
  Array.iteri (fun i id -> Hashtbl.replace r_index id i) r_ids;
  let len = Array.length t.entries in
  let np = t.n_procs in
  (* Clock copies live in flat arrays, [np] entries per slot: one slot per
     send that some receive matches, one per cast root. *)
  let root_of = Array.make len (-1) in
  Array.iteri (fun c (_, node) -> root_of.(node) <- c) pairs;
  let sent_slot = Array.make len (-1) in
  let n_sent = ref 0 in
  Array.iter
    (fun s ->
      if s >= 0 && sent_slot.(s) < 0 then begin
        sent_slot.(s) <- !n_sent;
        incr n_sent
      end)
    t.msg_src;
  let sent = Array.make (!n_sent * np) 0 in
  let roots = Array.make (n * np) 0 in
  let root_proc = Array.make n 0 in
  let clock = Array.init np (fun _ -> Array.make np 0) in
  for i = 0 to len - 1 do
    let p = t.proc.(i) in
    let vc = clock.(p) in
    let s = t.msg_src.(i) in
    if s >= 0 then begin
      let base = sent_slot.(s) * np in
      for k = 0 to np - 1 do
        let v = sent.(base + k) in
        if v > vc.(k) then vc.(k) <- v
      done
    end;
    vc.(p) <- vc.(p) + 1;
    let slot = sent_slot.(i) in
    if slot >= 0 then Array.blit vc 0 sent (slot * np) np;
    let c = root_of.(i) in
    if c >= 0 then begin
      root_proc.(c) <- p;
      Array.blit vc 0 roots (c * np) np
    end
  done;
  let r_words = (n + 62) / 63 in
  let r_succ = Array.init n (fun _ -> Array.make r_words 0) in
  for a = 0 to n - 1 do
    let pa = root_proc.(a) and row = r_succ.(a) in
    let cnt = roots.((a * np) + pa) in
    for b = 0 to n - 1 do
      if b <> a && roots.((b * np) + pa) >= cnt then
        row.(b / 63) <- row.(b / 63) lor (1 lsl (b mod 63))
    done
  done;
  { r_ids; r_index; r_words; r_succ }

let causally_precedes t a b =
  match (Msg_id.Tbl.find_opt t.casts a, Msg_id.Tbl.find_opt t.casts b) with
  | Some ra, Some rb ->
    let dist = distances t ra in
    dist.(rb) <> None
  | _ -> false
