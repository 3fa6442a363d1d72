(* Cast batcher for the high-throughput lane.

   Application casts are buffered per destination-group set and flushed as
   one batch — one R-MCast dissemination, one ordering payload — under a
   size-or-timeout policy: a batch is flushed as soon as it holds
   [batch_max] casts, or [batch_delay] after its first cast, whichever
   comes first. Batches are transparent at delivery: the host protocol
   unbatches before handing messages to its ordering layer, so checkers
   and [Run_result] see individual casts unchanged.

   With [batch_max = 1] the batcher is a strict bypass: every cast is
   flushed synchronously as a singleton, no buffer and no timer, so the
   message pattern is byte-identical to the pre-batching protocol (and the
   formed/packed counters stay at zero — a zero [batches_formed] in the
   stats is the signature of the lane being off).

   Casts buffered at a process that crashes before the flush are lost with
   it — indistinguishable from the process crashing just before casting,
   which the validity specification already exempts. *)

type key = Net.Topology.gid list

type t = {
  max : int;
  delay : Des.Sim_time.t;
  set_timer : after:Des.Sim_time.t -> (unit -> unit) -> int;
  cancel_timer : int -> unit;
  flush : key:key -> Msg.t list -> unit;
  mutable buckets : (key * Msg.t list ref) list; (* insertion order *)
  mutable timer : int option;
  (* observability *)
  mutable formed : int; (* batches flushed with the lane on *)
  mutable packed : int; (* casts that travelled in those batches *)
  mutable max_batch : int; (* largest batch flushed *)
}

let create ~max ~delay ~set_timer ~cancel_timer ~flush =
  if max < 1 then invalid_arg "Batcher.create: max must be >= 1";
  {
    max;
    delay;
    set_timer;
    cancel_timer;
    flush;
    buckets = [];
    timer = None;
    formed = 0;
    packed = 0;
    max_batch = 0;
  }

let enabled t = t.max > 1
let same_key = List.equal Int.equal

let rec find_bucket key = function
  | [] -> None
  | (k, b) :: rest -> if same_key k key then Some b else find_bucket key rest

let flush_bucket t key msgs =
  let n = List.length msgs in
  t.formed <- t.formed + 1;
  t.packed <- t.packed + n;
  if n > t.max_batch then t.max_batch <- n;
  t.flush ~key msgs

(* Flush every bucket, oldest first. The timer is cancelled (not merely
   forgotten) so a size-triggered flush does not leave a stale timeout
   behind to fire on an empty buffer. *)
let flush_all t =
  (match t.timer with
  | Some h ->
    t.cancel_timer h;
    t.timer <- None
  | None -> ());
  let buckets = t.buckets in
  t.buckets <- [];
  List.iter (fun (key, msgs) -> flush_bucket t key (List.rev !msgs)) buckets

let add t (m : Msg.t) =
  if not (enabled t) then t.flush ~key:m.dest [ m ]
  else begin
    let key = m.dest (* [Msg.make] sorts and dedups destinations *) in
    let bucket =
      match find_bucket key t.buckets with
      | Some b -> b
      | None ->
        let b = ref [] in
        t.buckets <- t.buckets @ [ (key, b) ];
        b
    in
    bucket := m :: !bucket;
    if List.length !bucket >= t.max then begin
      (* Size-triggered: flush this destination set now; other buckets
         keep waiting for their own trigger. *)
      t.buckets <- List.filter (fun (k, _) -> not (same_key k key)) t.buckets;
      flush_bucket t key (List.rev !bucket);
      if t.buckets = [] then
        match t.timer with
        | Some h ->
          t.cancel_timer h;
          t.timer <- None
        | None -> ()
    end
    else if t.timer = None then
      t.timer <-
        Some
          (t.set_timer ~after:t.delay (fun () ->
               t.timer <- None;
               flush_all t))
  end

let pending t = List.fold_left (fun acc (_, b) -> acc + List.length !b) 0 t.buckets
let batches_formed t = t.formed
let casts_packed t = t.packed
let max_batch t = t.max_batch
