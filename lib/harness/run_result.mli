(** The observable outcome of one simulated run.

    Everything the metrics and the correctness checkers need: the cast
    events (with Lamport values), the delivery events in order of
    occurrence, per-process delivery sequences, message counters and the
    full trace. *)

type cast_event = {
  msg : Amcast.Msg.t;
  origin : Net.Topology.pid;
  at : Des.Sim_time.t;
  lc : Lclock.t;  (** Clock value at the A-XCast event. *)
}

type delivery_event = {
  pid : Net.Topology.pid;
  msg : Amcast.Msg.t;
  at : Des.Sim_time.t;
  lc : Lclock.t;  (** Clock value at the A-Deliver event. *)
}

type index = {
  correct_arr : bool array;  (** pid -> not crashed. *)
  dels : delivery_event array;  (** The deliveries, in occurrence order. *)
  del_slot : int array;  (** Delivery -> the slot of its message id. *)
  del_pos : int array;
      (** Delivery -> its position in its process's delivery sequence. *)
  seqs : int array array;
      (** pid -> its delivery sequence, oldest first, as indexes into
          [dels]. *)
  n_slots : int;  (** Distinct message ids, cast or delivered. *)
  n_cast : int;
      (** Slots [0 .. n_cast - 1] are the cast ids, in order of first
          cast; the rest were delivered but never cast. *)
  cast_at : cast_event array;  (** Cast slot -> its first cast event. *)
  cast_slot : int array;  (** The i-th cast event -> its slot. *)
  slot_of_id : int Runtime.Msg_id.Tbl.t;  (** Id -> slot. *)
  slot_start : int array;
  by_slot : int array;
      (** The deliveries of slot [s], in occurrence order, are
          [by_slot.(slot_start.(s))] to
          [by_slot.(slot_start.(s + 1) - 1)]. *)
}
(** Per-run lookup structures, built in a few linear passes over the
    cast and delivery logs. Every distinct message id gets a dense int
    slot, so the checkers run linear passes over int arrays; [slot_of_id]
    is the only hash table. Memory is O(processes + casts + deliveries). *)

type t = {
  topology : Net.Topology.t;
  casts : cast_event list;  (** In cast order. *)
  deliveries : delivery_event list;  (** In global order of occurrence. *)
  crashed : Net.Topology.pid list;
      (** Processes that crashed during the run (faulty); the rest are
          correct. *)
  trace : Runtime.Trace.t;
  inter_group_msgs : int;
  intra_group_msgs : int;
  end_time : Des.Sim_time.t;
  drained : bool;
      (** Whether the run ended because the event queue drained (the
          deployment became quiescent) rather than because the horizon was
          reached. *)
  events_executed : int;
      (** Scheduler actions executed during the run — the simulation's raw
          event count, the unit benchmarks normalise throughput by. *)
  mutable index_memo : index option;
      (** Lazily built by {!index}; construct values with {!make} (which
          seeds it with [None]) rather than a record literal. *)
}

val make :
  topology:Net.Topology.t ->
  casts:cast_event list ->
  deliveries:delivery_event list ->
  crashed:Net.Topology.pid list ->
  trace:Runtime.Trace.t ->
  inter_group_msgs:int ->
  intra_group_msgs:int ->
  end_time:Des.Sim_time.t ->
  drained:bool ->
  events_executed:int ->
  unit ->
  t

val index : t -> index
(** The memoised per-run index: built on first use, shared by every
    subsequent accessor and checker on the same run. *)

val slot_id : index -> int -> Runtime.Msg_id.t
(** The message id of a slot. *)

val delivered_everywhere_slot : t -> mark:int array -> int -> bool
(** [delivered_everywhere_slot t ~mark s] is true when slot [s] was cast
    and every correct addressee of its first cast delivered it. [mark] is
    a pid-indexed scratch array, filled with [-1] when created, that
    calls on the slots of one run may share. *)

val correct : t -> Net.Topology.pid -> bool

val sequence_of : t -> Net.Topology.pid -> Amcast.Msg.t list
(** The delivery sequence of a process, oldest first. *)

val deliveries_of : t -> Runtime.Msg_id.t -> delivery_event list
(** Every delivery of the message, in occurrence order; one table probe
    and a walk of its deliveries after indexing. *)

val delivered_everywhere_needed : t -> Runtime.Msg_id.t -> bool
(** True when every correct addressee delivered the message. *)

val pp_summary : Format.formatter -> t -> unit
