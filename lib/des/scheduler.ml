type handle = int

module Tag = struct
  (* Packed as [actor lsl 3 lor kind] so a tag is an immediate int: tagging
     every network delivery costs no allocation. Actor -1 (generic) packs
     to a negative int, which is fine — only [kind]/[actor] ever unpack. *)
  type t = int

  let k_generic = 0
  let k_deliver = 1
  let k_timer = 2
  let k_crash = 3
  let k_cast = 4
  let generic = (-1 lsl 3) lor k_generic
  let deliver pid = (pid lsl 3) lor k_deliver
  let timer pid = (pid lsl 3) lor k_timer
  let crash pid = (pid lsl 3) lor k_crash
  let cast pid = (pid lsl 3) lor k_cast

  let kind t =
    match t land 7 with
    | 0 -> `Generic
    | 1 -> `Deliver
    | 2 -> `Timer
    | 3 -> `Crash
    | 4 -> `Cast
    | _ -> `Generic

  let actor t = t asr 3

  let anytime t =
    let k = t land 7 in
    k = k_deliver || k = k_crash

  let pp ppf t =
    let k =
      match kind t with
      | `Generic -> "generic"
      | `Deliver -> "deliver"
      | `Timer -> "timer"
      | `Crash -> "crash"
      | `Cast -> "cast"
    in
    if actor t < 0 then Format.fprintf ppf "%s" k
    else Format.fprintf ppf "%s@p%d" k (actor t)
end

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : Sim_time.t;
  mutable executed : int;
  mutable arg : int; (* the argument of the action running now *)
}

let create () =
  { queue = Event_queue.create ~dummy:ignore; clock = Sim_time.zero;
    executed = 0; arg = 0 }

let now t = t.clock

let at_arg t tag time f arg =
  let time = Sim_time.max time t.clock in
  Event_queue.add_tagged t.queue ~time ~tag ~arg f

let at_tagged t tag time f = at_arg t tag time f 0
let after_tagged t tag d f = at_tagged t tag (Sim_time.add t.clock d) f
let arg t = t.arg

let cancel t h = Event_queue.cancel t.queue h

let pending t = Event_queue.size t.queue

let executed t = t.executed

let enabled t = Event_queue.live t.queue

let exec t (time : Sim_time.t) arg f =
  if (time :> int) > (t.clock :> int) then t.clock <- time;
  t.executed <- t.executed + 1;
  t.arg <- arg;
  f ()

(* The root is known live: take it without a second check. *)
let exec_top t =
  let q = t.queue in
  let time = Event_queue.top_time q and arg = Event_queue.top_arg q in
  exec t time arg (Event_queue.pop_top q)

let step t =
  Event_queue.ready t.queue
  && begin
    exec_top t;
    true
  end

let step_handle t h =
  match Event_queue.take t.queue h with
  | None -> false
  | Some (time, arg, f) ->
    exec t time arg f;
    true

let run ?(until = Sim_time.infinity) ?(max_steps = max_int) t =
  let steps = ref 0 in
  while
    Event_queue.ready t.queue
    && (Event_queue.top_time t.queue :> int) <= (until :> int)
  do
    if !steps >= max_steps then
      failwith "Scheduler.run: max_steps exhausted (runaway event loop?)";
    incr steps;
    exec_top t
  done
