(** Reliable multicast (Section 2.2).

    [R-MCast m] / [R-Deliver m] with per-message destination sets,
    satisfying uniform integrity (deliver at most once, only addressees,
    only if cast), validity (a correct caster's message is delivered by all
    correct addressees) and non-uniform agreement (if a correct process
    delivers, every correct addressee does).

    This is the paper's primitive: its multicast algorithm deliberately
    uses a {e non-uniform} reliable multicast (Section 4.1). Delivery
    happens on first receipt — latency degree 1, [|dest| - 1] messages in
    the failure-free case, exactly the oracle-based cost Figure 1 assumes
    for the primitive of Frolund & Pedone [6]. Agreement is ensured by a
    crash-triggered relay: when the failure oracle reports the origin
    crashed, every process that delivered re-forwards once.

    The caster need not belong to the destination set; it then sends but
    never delivers.

    Entry state is garbage-collected: bulk state is reclaimed after the
    crash-relay obligation fires, leaving a small tombstone that keeps
    delivery at-most-once. Fan-outs ride a single broadcast network event
    ({!Runtime.Services.send_multi}) instead of one event per addressee,
    with the same per-destination arrival times and delivery order. *)

type 'p msg

val tag : 'p msg -> string

type ('p, 'w) t

val create :
  services:'w Runtime.Services.t ->
  wrap:('p msg -> 'w) ->
  ?oracle_delay:Des.Sim_time.t ->
  on_deliver:
    (id:Runtime.Msg_id.t ->
    origin:Net.Topology.pid ->
    dest:Net.Topology.pid list ->
    'p ->
    unit) ->
  unit ->
  ('p, 'w) t
(** [create ~services ~wrap ~on_deliver ()] is an endpoint. [oracle_delay]
    (default 50ms) is the detection delay of the crash-relay rule.
    [on_deliver] fires exactly once per R-Delivered message. *)

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
(** Entries still holding their payload. *)

val reclaimed_entries : ('p, 'w) t -> int
(** Entries reduced to at-most-once tombstones by the GC. *)
