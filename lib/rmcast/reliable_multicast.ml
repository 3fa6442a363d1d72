open Net
open Runtime

type 'p msg = {
  id : Msg_id.t;
  origin : Topology.pid;
  dest : Topology.pid list;
  payload : 'p;
}

let tag (_ : 'p msg) = "rm.data"

type 'p known = {
  origin : Topology.pid;
  mutable dest : Topology.pid list;
  mutable payload : 'p option; (* None once reclaimed *)
  mutable relayed : bool;
  mutable delivered : bool;
  mutable reclaimed : bool;
      (* tombstone: bulk state dropped, entry kept for at-most-once *)
}

type ('p, 'w) t = {
  services : 'w Services.t;
  wrap : 'p msg -> 'w;
  known : 'p known Msg_id.Tbl.t;
  mutable reclaimed_count : int;
  on_deliver :
    id:Msg_id.t ->
    origin:Topology.pid ->
    dest:Topology.pid list ->
    'p ->
    unit;
}

(* The entry for [id], created holding [payload] on first sight. *)
let find_known t ~id ~origin ~dest payload =
  match Msg_id.Tbl.find_opt t.known id with
  | Some k -> k
  | None ->
    let k =
      {
        origin;
        dest;
        payload = Some payload;
        relayed = false;
        delivered = false;
        reclaimed = false;
      }
    in
    Msg_id.Tbl.replace t.known id k;
    k

(* Pids are immediate ints: [List.memq] tests them exactly, without the
   polymorphic compare of [List.mem]. *)
let maybe_deliver t id k =
  if
    (not k.delivered) && (not k.reclaimed)
    && List.memq t.services.Services.self k.dest
  then
    match k.payload with
    | Some p ->
      k.delivered <- true;
      t.on_deliver ~id ~origin:k.origin ~dest:k.dest p
    | None -> ()

let relay t id k =
  if (not k.relayed) && not k.reclaimed then
    match k.payload with
    | None -> ()
    | Some payload ->
      k.relayed <- true;
      let self = t.services.Services.self in
      Services.send_multi t.services
        (List.filter (fun q -> q <> self) k.dest)
        (t.wrap { id; origin = k.origin; dest = k.dest; payload });
      maybe_deliver t id k

let reclaim t k =
  k.reclaimed <- true;
  k.payload <- None;
  k.dest <- [];
  t.reclaimed_count <- t.reclaimed_count + 1

let rmcast t ~id ~dest payload =
  let dest = List.sort_uniq Int.compare dest in
  let origin = t.services.Services.self in
  (* The origin's initial fan-out IS its relay. *)
  let k = find_known t ~id ~origin ~dest payload in
  if not k.reclaimed then begin
    k.relayed <- true;
    Services.send_multi t.services
      (List.filter (fun q -> q <> origin) dest)
      (t.wrap { id; origin; dest; payload });
    maybe_deliver t id k
  end

let handle t ~src:_ { id; origin; dest; payload } =
  let k = find_known t ~id ~origin ~dest payload in
  if not k.reclaimed then begin
    (* Origin already down when we learn the message: relay immediately,
       the crash-detection callback has already fired (or soon will, with
       this message not yet known). *)
    if not (t.services.Services.alive k.origin) then relay t id k;
    maybe_deliver t id k
  end

let retained_entries t = Msg_id.Tbl.length t.known - t.reclaimed_count
let reclaimed_entries t = t.reclaimed_count

let create ~services ~wrap ?(oracle_delay = Des.Sim_time.of_ms 50)
    ~on_deliver () =
  let t =
    {
      services;
      wrap;
      known = Msg_id.Tbl.create 64;
      reclaimed_count = 0;
      on_deliver;
    }
  in
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
        t.known);
  t
