(** Reliable multicast (Section 2.2).

    [R-MCast m] / [R-Deliver m] with per-message destination sets,
    satisfying uniform integrity (deliver at most once, only addressees,
    only if cast), validity (a correct caster's message is delivered by all
    correct addressees) and agreement.

    Two variants:

    - {!Eager_nonuniform} — the paper's default primitive (its multicast
      algorithm deliberately uses a {e non-uniform} reliable multicast,
      Section 4.1). Delivery happens on first receipt — latency degree 1,
      [|dest| - 1] messages in the failure-free case, exactly the
      oracle-based cost Figure 1 assumes for the primitive of Frolund &
      Pedone [6]. Agreement for correct processes is ensured by a
      crash-triggered relay: when the failure oracle reports the origin
      crashed, every process that delivered re-forwards once.

    - {!Ack_uniform} — a uniform variant (used by the Fritzke et al. [5]
      baseline, which relies on uniform reliable multicast): every receiver
      vouches on first receipt and delivers only once vouchers from a
      majority of the destination set are in, so a delivery by {e any}
      process (even one about to crash) implies every correct addressee
      eventually delivers. Costs one extra message delay and O(|dest|²)
      messages. The payload travels once: the origin fans out the
      payload-bearing [Data], and every receiver vouches with a
      payload-free [Copy] ack, so the O(|dest|²) term is small acks plus
      O(|dest|) payloads. A process whose [Copy] arrives before any
      payload pulls it point-to-point with [Fetch] (the voucher
      necessarily holds it).

    The caster need not belong to the destination set; it then sends but
    never delivers.

    Entry state is garbage-collected. In {!Ack_uniform}, once every
    addressee has vouched and the message is locally settled, the
    payload, copy set and destination list are dropped, leaving a small
    tombstone that keeps delivery at-most-once; in {!Eager_nonuniform},
    bulk state is reclaimed after the crash-relay obligation fires.
    Fan-outs ride a single broadcast network event
    ({!Runtime.Services.send_multi}) instead of one event per addressee,
    with the same per-destination arrival times and delivery order. *)

type 'p msg

val tag : 'p msg -> string

type mode = Eager_nonuniform | Ack_uniform

type ('p, 'w) t

val create :
  services:'w Runtime.Services.t ->
  wrap:('p msg -> 'w) ->
  ?mode:mode ->
  ?oracle_delay:Des.Sim_time.t ->
  on_deliver:
    (id:Runtime.Msg_id.t ->
    origin:Net.Topology.pid ->
    dest:Net.Topology.pid list ->
    'p ->
    unit) ->
  unit ->
  ('p, 'w) t
(** [create ~services ~wrap ~on_deliver ()] is an endpoint. [mode] defaults
    to {!Eager_nonuniform}; [oracle_delay] (default 50ms) is the detection
    delay of the crash-relay rule. [on_deliver] fires exactly once per
    R-Delivered message. *)

val rmcast :
  ('p, 'w) t ->
  id:Runtime.Msg_id.t ->
  dest:Net.Topology.pid list ->
  'p ->
  unit
(** Casts a message to [dest] (duplicates ignored). The id must be globally
    unique; {!Runtime.Msg_id} ids qualify. *)

val handle : ('p, 'w) t -> src:Net.Topology.pid -> 'p msg -> unit
(** Feed an incoming reliable-multicast wire message. *)

val retained_entries : ('p, 'w) t -> int
(** Entries still holding bulk state (payload/copy set) or awaiting it. *)

val reclaimed_entries : ('p, 'w) t -> int
(** Entries reduced to at-most-once tombstones by the GC. *)
