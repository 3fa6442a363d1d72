(** Skeen's stamp-ordering kernel, shared by {!Skeen}, {!Generic},
    {!Flexcast} and {!Scalable}.

    One instance per process. It owns the logical clock, the pending
    table, the delivered set, stamps that outran their message, the pooled
    per-pid stamp rows, and the delivery rule: a pending entry sits in a
    {!Pending_index} keyed by the lower bound of its final timestamp (its
    own stamp until finalised, the final stamp after), so a finalised root
    is deliverable and an unfinalised root blocks. The protocols keep what
    is their own: the wire, the message path, and how the final stamp is
    chosen (the maximum of all stamps, or a consensus on it).

    Send order: {!admit} never finalises, so a protocol sends its own
    stamp before any delivery that stamp makes possible. *)

type 'a t
(** Kernel state; ['a] is the per-entry protocol payload. *)

type 'a entry
(** One pending message. *)

val create :
  topology:Net.Topology.t ->
  self:Net.Topology.pid ->
  deliver:(Msg.t -> unit) ->
  'a t

val fresh : 'a t -> Runtime.Msg_id.t -> bool
(** Neither pending nor delivered. *)

val tick : 'a t -> int
(** Advance the clock by one and return it. *)

val merge : 'a t -> int -> unit
(** Raise the clock to at least the given stamp. *)

val admit : 'a t -> ord:'a entry Pending_index.t -> Msg.t -> 'a -> 'a entry
(** [admit t ~ord m x] makes a fresh [m] pending: it ticks the clock,
    records that value as this process's own stamp, keys the entry in
    [ord] by it and applies the stamps that arrived before [m]. It does
    not finalise; check {!complete} once the own stamp is sent. *)

val stamp :
  'a t -> Runtime.Msg_id.t -> from:Net.Topology.pid -> int -> 'a entry option
(** [stamp t id ~from ts] merges [ts] into the clock, then records it as
    [from]'s stamp on the pending entry and returns that entry. A second
    stamp from the same pid is ignored. A stamp for an unknown message is
    kept for {!admit}; one for a delivered message is dropped. *)

val complete : 'a entry -> int option
(** [Some max] once every addressee's stamp is in and the entry is not
    final yet: [max] is the largest stamp. *)

val finalize : 'a t -> 'a entry -> int -> unit
(** Fix the final stamp, rekey the entry, merge the stamp into the clock,
    then deliver every finalised root of the entry's index in
    [(final, id)] order. *)

val bypass : 'a t -> Msg.t -> unit
(** Deliver a fresh message without ordering it. *)

val find : 'a t -> Runtime.Msg_id.t -> 'a entry option
val msg : 'a entry -> Msg.t
val own_ts : 'a entry -> int
val data : 'a entry -> 'a
val is_final : 'a entry -> bool
val pending_count : 'a t -> int
