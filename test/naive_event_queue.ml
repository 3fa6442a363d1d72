(* The naive twin of [Des.Event_queue] for model tests: pending entries in
   one list kept sorted by (time, handle), handles issued densely from 0.
   Every operation is a list walk; only the observable behaviour matters. *)

type 'a entry = { handle : int; time : int; tag : int; arg : int; payload : 'a }
type 'a t = { mutable pending : 'a entry list; mutable next : int }

let create () = { pending = []; next = 0 }

let add_tagged q ~time ~tag ~arg payload =
  let handle = q.next in
  q.next <- handle + 1;
  let e = { handle; time; tag; arg; payload } in
  (* The new handle is the largest, so it goes after every equal time. *)
  let rec insert = function
    | x :: rest when x.time <= time -> x :: insert rest
    | rest -> e :: rest
  in
  q.pending <- insert q.pending;
  handle

let add q ~time payload = add_tagged q ~time ~tag:0 ~arg:0 payload

let cancel q h = q.pending <- List.filter (fun e -> e.handle <> h) q.pending

let pop q =
  match q.pending with
  | [] -> None
  | e :: rest ->
    q.pending <- rest;
    Some (e.time, e.payload)

let peek_time q =
  match q.pending with [] -> None | e :: _ -> Some e.time

let size q = List.length q.pending
let live q = List.map (fun e -> (e.handle, e.time, e.tag)) q.pending

let take q h =
  match List.find_opt (fun e -> e.handle = h) q.pending with
  | None -> None
  | Some e ->
    cancel q h;
    Some (e.time, e.arg, e.payload)
