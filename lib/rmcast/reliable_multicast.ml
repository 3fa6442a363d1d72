open Net
open Runtime

type 'p msg =
  | Data of {
      id : Msg_id.t;
      origin : Topology.pid;
      dest : Topology.pid list;
      payload : 'p;
    }
  | Copy of { id : Msg_id.t; origin : Topology.pid; dest : Topology.pid list }
      (* Ack: "I hold the payload and vouch for it" without
         re-sending the payload — the uniform mode's majority evidence at
         O(|dest|²) small acks instead of O(|dest|²) payload copies. *)
  | Fetch of { id : Msg_id.t }
      (* Payload pull, for the rare race where a Copy beats every
         payload-bearing Data to a process. Answered point-to-point. *)

let tag = function
  | Data _ -> "rm.data"
  | Copy _ -> "rm.copy"
  | Fetch _ -> "rm.fetch"

type mode = Eager_nonuniform | Ack_uniform

type 'p known = {
  origin : Topology.pid;
  mutable dest : Topology.pid list;
  mutable payload : 'p option; (* None: only a Copy seen (or reclaimed) *)
  mutable copies : Topology.pid list;
      (* distinct vouchers seen; kept only in [Ack_uniform], the one mode
         that reads it *)
  mutable relayed : bool;
  mutable delivered : bool;
  mutable fetched : bool; (* a Fetch for the payload is outstanding *)
  mutable reclaimed : bool;
      (* tombstone: bulk state dropped, entry kept for at-most-once *)
}

type ('p, 'w) t = {
  services : 'w Services.t;
  wrap : 'p msg -> 'w;
  mode : mode;
  known : 'p known Msg_id.Tbl.t;
  mutable reclaimed_count : int;
  on_deliver :
    id:Msg_id.t ->
    origin:Topology.pid ->
    dest:Topology.pid list ->
    'p ->
    unit;
}

let majority dest = (List.length dest / 2) + 1

let find_known t ~id ~origin ~dest =
  match Msg_id.Tbl.find_opt t.known id with
  | Some k -> k
  | None ->
    let k =
      {
        origin;
        dest;
        payload = None;
        copies = [];
        relayed = false;
        delivered = false;
        fetched = false;
        reclaimed = false;
      }
    in
    Msg_id.Tbl.replace t.known id k;
    k

(* Pids are immediate ints: [List.memq] tests them exactly, without the
   polymorphic compare of [List.mem]. *)
let note_voucher t k q =
  match t.mode with
  | Ack_uniform -> if not (List.memq q k.copies) then k.copies <- q :: k.copies
  | Eager_nonuniform -> ()

let rec relay t id k =
  if (not k.relayed) && not k.reclaimed then
    match k.payload with
    | None -> () (* no payload yet — the Fetch is in flight *)
    | Some payload ->
      k.relayed <- true;
      let self = t.services.Services.self in
      (* Relaying vouches for the message: the relayer counts as one of the
         copy holders the uniform mode's majority test looks for. *)
      note_voucher t k self;
      let others = List.filter (fun q -> q <> self) k.dest in
      (match t.mode with
      | Ack_uniform ->
        (* The payload travelled once (origin fan-out or Fetch reply):
           vouch with a payload-free Copy. *)
        Services.send_multi t.services others
          (t.wrap (Copy { id; origin = k.origin; dest = k.dest }))
      | Eager_nonuniform ->
        Services.send_multi t.services others
          (t.wrap (Data { id; origin = k.origin; dest = k.dest; payload })));
      maybe_deliver t id k

and maybe_deliver t id k =
  if
    (not k.delivered) && (not k.reclaimed)
    && List.memq t.services.Services.self k.dest
  then begin
    let ready =
      match t.mode with
      | Eager_nonuniform -> k.payload <> None
      | Ack_uniform ->
        k.payload <> None && List.length k.copies >= majority k.dest
    in
    if ready then begin
      k.delivered <- true;
      match k.payload with
      | Some p -> t.on_deliver ~id ~origin:k.origin ~dest:k.dest p
      | None -> assert false
    end
  end

let reclaim t k =
  k.reclaimed <- true;
  k.payload <- None;
  k.copies <- [];
  k.dest <- [];
  t.reclaimed_count <- t.reclaimed_count + 1

(* A Copy/Data from q proves q holds the payload, so once every addressee
   has vouched (and we are done with the message locally) nobody can ever
   Fetch from us again: drop payload, copies and dest. The tombstone stays
   because the origin's payload-bearing Data to us can still be in flight
   (we may have learned the payload through a Fetch reply that overtook
   it) — at-most-once needs the [delivered] flag to survive. *)
let maybe_reclaim t k =
  if
    t.mode = Ack_uniform && (not k.reclaimed) && k.relayed
    && (k.delivered || not (List.memq t.services.Services.self k.dest))
    && List.for_all (fun q -> List.memq q k.copies) k.dest
  then reclaim t k

let learn t ~id ~origin ~dest ~payload ~from =
  let k = find_known t ~id ~origin ~dest in
  if not k.reclaimed then begin
    if k.payload = None then k.payload <- Some payload;
    note_voucher t k from;
    (match t.mode with
    | Ack_uniform ->
      (* Uniformity needs everyone to echo before anyone is sure. *)
      relay t id k
    | Eager_nonuniform ->
      (* Origin already down when we learn the message: relay immediately,
         the crash-detection callback has already fired (or soon will, with
         this message not yet known). *)
      if not (t.services.Services.alive k.origin) then relay t id k);
    maybe_deliver t id k;
    maybe_reclaim t k
  end;
  k

let rmcast t ~id ~dest payload =
  let dest = List.sort_uniq Int.compare dest in
  let origin = t.services.Services.self in
  (* The origin's initial fan-out IS its relay: mark it as such before
     learning so the Ack_uniform path does not fan out twice. *)
  let k = find_known t ~id ~origin ~dest in
  if not k.reclaimed then begin
    if k.payload = None then k.payload <- Some payload;
    note_voucher t k origin;
    k.relayed <- true;
    Services.send_multi t.services
      (List.filter (fun q -> q <> origin) dest)
      (t.wrap (Data { id; origin; dest; payload }));
    maybe_deliver t id k;
    maybe_reclaim t k
  end

let note_copy t ~from ~id ~origin ~dest =
  let k = find_known t ~id ~origin ~dest in
  if not k.reclaimed then begin
    note_voucher t k from;
    if k.payload = None && not k.fetched then begin
      (* The payload is still on its way (or its carrier crashed): pull
         it from the voucher, who necessarily holds it. *)
      k.fetched <- true;
      t.services.send ~dst:from (t.wrap (Fetch { id }))
    end;
    maybe_deliver t id k;
    maybe_reclaim t k
  end

let handle t ~src:from m =
  match m with
  | Data { id; origin; dest; payload } ->
    ignore (learn t ~id ~origin ~dest ~payload ~from)
  | Copy { id; origin; dest } -> note_copy t ~from ~id ~origin ~dest
  | Fetch { id } -> (
    match Msg_id.Tbl.find_opt t.known id with
    | Some ({ payload = Some p; _ } as k) when not k.reclaimed ->
      t.services.send ~dst:from
        (t.wrap (Data { id; origin = k.origin; dest = k.dest; payload = p }))
    | _ -> ())

let retained_entries t = Msg_id.Tbl.length t.known - t.reclaimed_count
let reclaimed_entries t = t.reclaimed_count

let create ~services ~wrap ?(mode = Eager_nonuniform)
    ?(oracle_delay = Des.Sim_time.of_ms 50) ~on_deliver () =
  let t =
    {
      services;
      wrap;
      mode;
      known = Msg_id.Tbl.create 64;
      reclaimed_count = 0;
      on_deliver;
    }
  in
  (match mode with
  | Eager_nonuniform ->
    (* Crash-relay rule: when the origin of a delivered message is reported
       crashed, re-forward once so every correct addressee gets a copy.
       After the relay the payload's local obligations are over, so the
       bulk state is reclaimed (the tombstone keeps at-most-once intact
       against relays arriving from other deliverers). *)
    services.Services.on_crash_detected ~delay:oracle_delay (fun dead ->
        Msg_id.Tbl.iter
          (fun id k ->
            if k.origin = dead && k.delivered && not k.reclaimed then begin
              relay t id k;
              reclaim t k
            end)
          t.known)
  | Ack_uniform -> ());
  t
