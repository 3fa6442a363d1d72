open Des

type choice = {
  handle : Scheduler.handle;
  time : Sim_time.t;
  tag : Scheduler.Tag.t;
}

type t = {
  sched : Scheduler.t;
  budget : int;
  reorder_bound : int;
  mutable spurious_fired : int;
  mutable reorders : int;
  mutable steps : int;
}

let create ?(spurious_timers = 0) ?(reorder_bound = max_int) sched =
  {
    sched;
    budget = spurious_timers;
    reorder_bound;
    spurious_fired = 0;
    reorders = 0;
    steps = 0;
  }

let choices t =
  let live = Scheduler.enabled t.sched in
  (* The one eligible timed-class event: earliest in (time, seq) order.
     [Scheduler.enabled] returns that order, so it is the first non-anytime
     entry. *)
  let rec first_timed = function
    | [] -> None
    | (h, _, tag) :: rest ->
      if Scheduler.Tag.anytime tag then first_timed rest else Some (h, tag)
  in
  let ft = first_timed live in
  let eligible =
    List.filter_map
      (fun (handle, time, tag) ->
        let keep =
          Scheduler.Tag.anytime tag
          || (match ft with Some (h, _) -> h = handle | None -> false)
        in
        if keep then Some { handle; time; tag } else None)
      live
  in
  let eligible =
    match ft with
    | Some (h, tag)
      when Scheduler.Tag.kind tag = `Timer
           && t.spurious_fired >= t.budget
           && List.exists (fun c -> c.handle <> h) eligible ->
      (* Over budget: the timer may not preempt pending anytime events
         (every other eligible choice is one), but stays eligible when
         alone. *)
      List.filter (fun c -> c.handle <> h) eligible
    | _ -> eligible
  in
  (* Out of reorders: only the default (earliest) choice remains. *)
  if t.reorders >= t.reorder_bound then
    match eligible with [] -> [] | c :: _ -> [ c ]
  else eligible

let step_idx t i =
  let cs = choices t in
  match cs with
  | [] -> invalid_arg "Drive.step: deployment is quiescent"
  | _ ->
    let n = List.length cs in
    let i = if i < 0 then 0 else if i >= n then n - 1 else i in
    let c = List.nth cs i in
    if
      Scheduler.Tag.kind c.tag = `Timer
      && List.exists (fun c' -> Scheduler.Tag.anytime c'.tag) cs
    then t.spurious_fired <- t.spurious_fired + 1;
    if i > 0 then t.reorders <- t.reorders + 1;
    let executed = Scheduler.step_handle t.sched c.handle in
    assert executed;
    t.steps <- t.steps + 1;
    (i, c)

let step t i = snd (step_idx t i)
let finished t = Scheduler.pending t.sched = 0

let run ?(max_steps = 200_000) t cs =
  let executed = ref [] in
  let count = ref 0 in
  let exec i =
    if !count >= max_steps then failwith "Drive.run: max_steps exceeded";
    incr count;
    let j, _ = step_idx t i in
    executed := j :: !executed
  in
  List.iter (fun i -> if not (finished t) then exec i) cs;
  while not (finished t) do
    exec 0
  done;
  List.rev !executed
