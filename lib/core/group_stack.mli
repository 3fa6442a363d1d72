(** The sub-protocols every group runs under A1 and A2 (Section 2.2): a
    failure detector, a reliable multicast and uniform consensus among the
    group's members, plus the throughput lane's cast batcher.

    This is the one place that turns a {!Protocol.Config.t} into that
    stack, for {!A2} and for {!A1_stages} (and through it {!A1},
    {!Fritzke} and {!Whitebox}):

    - the detector is the oracle or a heartbeat ◇P over the group's
      members, by [fd_mode];
    - the reliable multicast runs with [oracle_delay] as its crash-relay
      delay, and carries batches of casts;
    - the {!Batcher} flushes each batch as one R-MCast;
    - Paxos runs over the group's members with [consensus_timeout],
      driven by the detector.

    Crash notifications fire in subscription order: the detector, then
    the caller's [on_crash], then the reliable multicast, then Paxos. *)

type ('v, 'w) t = private {
  rm : (Msg.t list, 'w) Rmcast.Reliable_multicast.t;
  cons : ('v, 'w) Consensus.Paxos.t;
  hb : 'w Fd.Heartbeat.t option; (** only with [fd_mode = Heartbeat] *)
  batcher : Batcher.t;
}
(** ['v] is the consensus value, ['w] the protocol's wire type. *)

val create :
  services:'w Runtime.Services.t ->
  config:Protocol.Config.t ->
  rm:(Msg.t list Rmcast.Reliable_multicast.msg -> 'w) ->
  cons:('v Consensus.Paxos.msg -> 'w) ->
  hb:(Fd.Heartbeat.msg -> 'w) ->
  ?on_crash:(Net.Topology.pid -> unit) ->
  flush_to:(Net.Topology.gid list -> Net.Topology.pid list) ->
  on_rdeliver:(Msg.t list -> unit) ->
  on_decide:(instance:int -> 'v -> unit) ->
  unit ->
  ('v, 'w) t
(** [rm], [cons] and [hb] wrap the sub-protocols' messages into the
    protocol's wire. [on_crash], when given, subscribes to the oracle's
    crash notifications after the detector and before the reliable
    multicast. A batch bound to the normalized destination-group list
    [key] is R-MCast to [flush_to key], under the id of its first
    message, so a singleton batch is exactly the unbatched dissemination.
    [on_rdeliver] receives each R-Delivered batch; [on_decide] each
    consensus decision. *)

val cast : ('v, 'w) t -> Msg.t -> unit
(** Hand a cast to the batcher. *)

val on_rm :
  ('v, 'w) t ->
  src:Net.Topology.pid ->
  Msg.t list Rmcast.Reliable_multicast.msg ->
  unit

val on_cons :
  ('v, 'w) t -> src:Net.Topology.pid -> 'v Consensus.Paxos.msg -> unit

val on_hb : ('v, 'w) t -> src:Net.Topology.pid -> Fd.Heartbeat.msg -> unit
(** Heartbeats are ignored under the oracle detector. *)

val stats : ('v, 'w) t -> (string * int) list
(** Retained consensus instances, reliable-multicast entries and
    tombstones, and the batcher counters. *)
