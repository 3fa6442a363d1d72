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
  seqs : Amcast.Msg.t array array;
      (** pid -> its delivery sequence, oldest first. *)
  pos : int Runtime.Msg_id.Tbl.t array;
      (** pid -> (id -> position of that process's first delivery of the
          message). Keyed per-pid so the index is O(deliveries) in memory
          rather than O(distinct ids * n_processes). *)
  casts_by_id : cast_event Runtime.Msg_id.Tbl.t;
      (** First cast event per id. *)
  deliveries_by_id : delivery_event list Runtime.Msg_id.Tbl.t Lazy.t;
      (** Every delivery event per id, in occurrence order. Built on first
          use by {!deliveries_of}. *)
}
(** Per-run lookup structures built in one pass over the event lists.
    Everything the checkers consult repeatedly — who crashed, who delivered
    what and in which position — as O(1) arrays and hash tables instead of
    list scans. *)

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

val correct : t -> Net.Topology.pid -> bool

val sequence_of : t -> Net.Topology.pid -> Amcast.Msg.t list
(** The delivery sequence of a process, oldest first. *)

val cast_of : t -> Runtime.Msg_id.t -> cast_event option
val deliveries_of : t -> Runtime.Msg_id.t -> delivery_event list
(** Every delivery of the message, in occurrence order; O(1) after
    indexing. *)

val delivered_everywhere_needed : t -> Runtime.Msg_id.t -> bool
(** True when every correct addressee delivered the message. *)

val pp_summary : Format.formatter -> t -> unit
