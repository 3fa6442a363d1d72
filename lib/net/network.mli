(** The simulated wide-area network.

    Implements the quasi-reliable asynchronous links of Section 2.1: messages
    are never corrupted or duplicated, experience arbitrary (but finite)
    delays, and a message from a correct process to a correct process is
    eventually received. Crashes are modelled above this layer (the runtime
    stops a crashed process from sending and discards its deliveries), but
    the network exposes two adversarial controls the experiments need:

    - {!drop_inflight} removes selected messages that are still in flight —
      this is how a "dirty" crash loses the tail of a faulty process's sends
      (quasi-reliability only protects correct-to-correct pairs);
    - {!hold} delays all traffic between two groups until a given instant —
      this is how the lower-bound experiments (Section 3) build the delayed
      schedules used in the indistinguishability arguments.

    The payload type is a type parameter: each protocol instantiates the
    network with its own wire type, so no runtime tagging is needed.

    {b Cost of the controls.} The network indexes its in-flight
    point-to-point messages per directed group link, in scheduling order.
    The link controls ({!hold}, {!partition}, {!heal}, {!partition_groups}
    and {!heal_all}) therefore touch only the messages on the links they
    change. All of them, and {!drop_inflight}, first dissolve every
    fan-out still in flight into one message per remaining destination
    (a slab scan, paid once: with no fan-out in flight it costs nothing).
    The dissolved copies keep their arrival times but take fresh
    scheduler handles, so the fan-outs are dissolved in slot order: that
    order breaks ties between equal arrival times. *)

type 'w t

val create :
  sched:Des.Scheduler.t ->
  topology:Topology.t ->
  latency:Latency.t ->
  rng:Des.Rng.t ->
  deliver:(src:Topology.pid -> dst:Topology.pid -> 'w -> unit) ->
  'w t
(** [create ~sched ~topology ~latency ~rng ~deliver] is a network that calls
    [deliver] once per message at its (virtual) arrival time. *)

val send_multi :
  'w t -> src:Topology.pid -> dsts:Topology.pid list -> 'w -> unit
(** [send_multi t ~src ~dsts w] queues one copy of [w] for every destination
    in [dsts]; a point-to-point send is [~dsts:[ dst ]]. Counters and
    per-destination latency samples are applied in list order. Self-sends
    are allowed and take the intra-group delay. Delivery order between two
    processes is not FIFO (jitter may reorder), matching the asynchronous
    model. A fan-out of several destinations occupies a single scheduler
    event that walks the pre-sampled arrival times in order, re-arming
    itself at pop time, so the event queue holds one entry per fan-out
    instead of one per destination. The re-armed event takes a fresh
    handle, so an event scheduled after this call that ties with a later
    destination's arrival runs before it. *)

val hold :
  'w t -> src_group:Topology.gid -> dst_group:Topology.gid ->
  until:Des.Sim_time.t -> unit
(** [hold t ~src_group ~dst_group ~until] delays every message (current and
    future) from [src_group] to [dst_group] so that it arrives no earlier
    than [until]. Messages already in flight are pushed back, re-scheduled
    in their scheduling order. O(messages on the link). *)

val partition :
  'w t -> src_group:Topology.gid -> dst_group:Topology.gid -> unit
(** One-directional partition: messages from [src_group] to [dst_group]
    are held indefinitely (buffered, not dropped — the links stay
    quasi-reliable, a partition is just an arbitrarily long delay in the
    asynchronous model). Use {!heal} to release the buffered traffic.
    O(messages on the link). *)

val heal :
  'w t -> src_group:Topology.gid -> dst_group:Topology.gid -> unit
(** Removes a partition/hold between two groups; buffered messages are
    re-scheduled, in their scheduling order, with a fresh link-latency
    sample from now. O(messages on the link); nothing on an unheld link. *)

val partition_groups : 'w t -> Topology.gid list -> Topology.gid list -> unit
(** Bidirectional partition between two sets of groups ([partition] in both
    directions for every pair). O(messages on the cut links). *)

val heal_all : 'w t -> unit
(** Removes every partition and hold: a scan of the g² hold floors, plus
    {!heal}'s cost on every held link. *)

val latency_scale :
  'w t -> src_group:Topology.gid -> dst_group:Topology.gid -> float -> unit
(** [latency_scale t ~src_group ~dst_group s] multiplies every delay sampled
    on the [src_group]→[dst_group] link by [s] from now on (a latency spike
    for [s > 1], an anomalously fast link for [s < 1]). Messages already in
    flight keep their arrival times — the scale perturbs the link's delay
    distribution at admission, not the queue. [s = 1.0] resets the link to
    the base model. Delays stay finite, so quasi-reliability is preserved.
    @raise Invalid_argument if [s <= 0]. *)

val drop_inflight :
  'w t -> (src:Topology.pid -> dst:Topology.pid -> bool) -> int
(** Cancels in-flight messages matching the predicate; returns how many were
    dropped. A scan of every in-flight message, not link by link: the
    predicate runs once per message in slot order, because a caller's
    predicate may draw randomness per match (the engine's
    [Lose_each_with_probability] crash drops do), which makes that order
    part of the fault stream. *)

val set_explode_fanout : 'w t -> bool -> unit
(** Controlled-scheduling mode (default off): when on, {!send_multi}
    schedules one event per destination instead of one self-re-arming slab
    event for the whole fan-out, so each delivery is an independently
    reorderable choice for the model checker. Latency draws and counters
    are unchanged — only the event-queue shape differs. *)

val set_tx_cost : 'w t -> Des.Sim_time.t -> unit
(** Per-message egress serialization cost at the sender (default zero).
    When positive, each admitted message departs only once the source's
    egress is free and occupies it for this long, so fan-outs and high
    offered rates queue at the sender — the saturation model the
    throughput benchmarks need. Zero keeps the pure-latency model byte
    for byte (no extra state is read or written).
    @raise Invalid_argument if the cost is negative. *)

(** Message counters, cumulative since creation. *)

val sent_total : 'w t -> int
val sent_inter_group : 'w t -> int
val sent_intra_group : 'w t -> int
val in_flight : 'w t -> int
