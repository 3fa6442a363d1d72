(** The A1 stage kernel, shared by {!A1} (and so {!Fritzke}) and
    {!Whitebox}.

    One instance per process. It owns A1's four-stage machine inside the
    process's group: the group clock [K], the pending table with its
    [(ts, id)]-ordered index and proposable (s0/s2) subset, pipelined
    proposing to the group's consensus, decision processing, the s1
    completion rule and the s3 delivery test. Its failure detector,
    reliable multicast, batcher and Paxos come from {!Group_stack}. The
    protocols keep what is their own: the wire, and the inter-group
    exchange of s1 — who sends the group's timestamp proposal for an
    s0-decided message, to whom, and in which envelope.

    Send order: nothing in the decision loop sends. The [on_s0_decided]
    hook runs once per decided instance that s0-decided a message, after
    the loop and before the clock moves, so a protocol's proposals leave
    in decision order ahead of every proposal, delivery or s1 completion
    the instance enables. *)

module Stage : sig
  type t = S0 | S1 | S2 | S3

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

type entry = { msg : Msg.t; ts : int; stage : Stage.t }
(** One consensus proposal entry: a pending message in stage s0 or s2,
    with the timestamp the deciders need to interpret it. *)

type 'w t
(** Kernel state; ['w] is the protocol's wire type. *)

val create :
  services:'w Runtime.Services.t ->
  config:Protocol.Config.t ->
  deliver:(Msg.t -> unit) ->
  rm:(Msg.t list Rmcast.Reliable_multicast.msg -> 'w) ->
  cons:(entry list Consensus.Paxos.msg -> 'w) ->
  hb:(Fd.Heartbeat.msg -> 'w) ->
  ?on_crash:(Net.Topology.pid -> unit) ->
  on_s0_decided:(int -> Msg.t array -> int -> unit) ->
  unit ->
  'w t
(** [rm], [cons], [hb] and [on_crash] go to {!Group_stack.create}: the
    stack R-MCasts each batch to the pids of its destination groups.
    [on_s0_decided k msgs n] is called for every decided instance
    [k] that s0-decided (and moved to s1) a message, with those messages
    in decision order in [msgs.(0 .. n-1)]: their group timestamp is [k].
    [msgs] is the kernel's scratch, valid only during the call. *)

val cast : 'w t -> Msg.t -> unit

val proposals :
  'w t -> from_group:Net.Topology.gid -> ts:int -> Msg.t list -> unit
(** {!proposal} for each message of a list, in order. *)

val proposal :
  'w t -> from_group:Net.Topology.gid -> ts:int -> Msg.t -> unit
(** A foreign group's timestamp proposal for a message. The first sight of
    the message enters it at s0 and proposes, as an R-delivery would; the
    first proposal per group is recorded and s1 is checked. *)

val stack : 'w t -> (entry list, 'w) Group_stack.t
(** The group's detector, reliable multicast, batcher and Paxos; the
    protocol routes their wire messages here. *)

val consensus_instances_executed : 'w t -> int
(** Consensus instances this process has decided and processed. *)

val stats : 'w t -> (string * int) list
(** The stack's counters ({!Group_stack.stats}), pending messages and
    the pipelining high-water mark. *)
