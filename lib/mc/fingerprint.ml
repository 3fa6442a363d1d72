open Des
open Runtime

type t = {
  slots : int; (* one per process + one for generic (actor -1) events *)
  mutable trace_seen : int;
  env_cid : (int, int) Hashtbl.t; (* envelope id -> per-source ordinal *)
  sends_by : int array; (* per-source envelope count *)
  actor_hash : int array;
}

let create ~n_processes =
  {
    slots = n_processes + 1;
    trace_seen = 0;
    env_cid = Hashtbl.create 64;
    sends_by = Array.make n_processes 0;
    actor_hash = Array.make (n_processes + 1) 0x2545f4914f6cdd1d;
  }

(* FNV-1a-style 62-bit rolling hash; [+ 1] keeps zero inputs active. *)
let mix h v = ((h * 0x100000001b3) + v + 1) land max_int

let bump t slot v = t.actor_hash.(slot) <- mix t.actor_hash.(slot) v

let cid t ~src ~env =
  match Hashtbl.find_opt t.env_cid env with
  | Some c -> c
  | None ->
    let c = t.sends_by.(src) in
    t.sends_by.(src) <- c + 1;
    Hashtbl.add t.env_cid env c;
    c

let note_entry t (e : Trace.entry) =
  match e with
  | Send { src; dst; tag; env; _ } ->
    let c = cid t ~src ~env in
    bump t src 1;
    bump t src dst;
    bump t src (Hashtbl.hash tag);
    bump t src c
  | Receive { src; dst; env; _ } ->
    (* The matching Send always precedes the Receive in append order, so
       the envelope's canonical id exists by now. *)
    let c = cid t ~src ~env in
    bump t dst 2;
    bump t dst src;
    bump t dst c
  | Cast { pid; id; _ } ->
    bump t pid 3;
    bump t pid id.Msg_id.origin;
    bump t pid id.Msg_id.seq
  | Deliver { pid; id; _ } ->
    bump t pid 4;
    bump t pid id.Msg_id.origin;
    bump t pid id.Msg_id.seq
  | Crash { pid; _ } -> bump t pid 5

let kind_code tag =
  match Scheduler.Tag.kind tag with
  | `Generic -> 6
  | `Deliver -> 7
  | `Timer -> 8
  | `Crash -> 9
  | `Cast -> 10

let note_step t ~tag ~trace =
  let actor = Scheduler.Tag.actor tag in
  let slot = if actor < 0 then t.slots - 1 else actor in
  (* Mix the step itself (its kind) so steps with no trace output — e.g. a
     timer whose guard was false — still distinguish states. *)
  bump t slot (kind_code tag);
  let n = Trace.length trace in
  let fresh = n - t.trace_seen in
  if fresh > 0 then begin
    let rec take acc k l =
      if k = 0 then acc
      else
        match l with [] -> acc | e :: rest -> take (e :: acc) (k - 1) rest
    in
    (* newest-first suffix, re-reversed to append order *)
    let entries = take [] fresh (Trace.entries_rev trace) in
    List.iter (note_entry t) entries;
    t.trace_seen <- n
  end

let state t =
  let h = ref 0x9e3779b97f4a7c1 in
  for i = 0 to t.slots - 1 do
    h := mix !h t.actor_hash.(i)
  done;
  !h land max_int
