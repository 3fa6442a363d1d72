(** The replicated KV service over real TCP — what {!Rsm} was built for,
    deployed: one {!Tcp} node per replica running a protocol instance of
    [P] plus the SET/GET/DEL state machine of {!Kv}, WAL durability
    ({!Wal}), per-key placement, and client request/reply over the same
    sockets.

    A client's command is atomically multicast to its key's group; the
    contacted replica (which must be a member of that group, others
    redirect) answers when {e it} delivers the command — so a reply
    certifies the command is ordered and applied at the shard.

    Crash/restart: {!crash} kills a replica (sockets die, unacked frames
    are lost, peers get an oracle notification). {!restart} brings it back
    as a {e learner}: it replays its WAL, drops protocol frames — a
    consensus participant that lost its promises must not rejoin — and
    catches up through service-level anti-entropy: every 50 ms it sends a
    live group peer its applied count and absorbs the peer's entries from
    that index on, first to {!synced} and from then on to follow what the
    group keeps committing without it. The prefix-aware {!Rsm.check_logs} is the
    consistency oracle throughout. *)

module Make (P : Amcast.Protocol.S) : sig
  type t

  val create :
    ?inject:Net.Latency.t ->
    ?seed:int ->
    ?config:Amcast.Protocol.Config.t ->
    ?base_port:int ->
    dir:string ->
    Net.Topology.t ->
    t
  (** Boots every replica (sockets bound and loops running on return) on
      [127.0.0.1:base_port+pid]. [dir] holds one WAL file per replica;
      stale WALs from earlier clusters are removed — a fresh cluster
      starts empty. [config]'s conflict relation is replaced by the
      per-key {!Kv.conflict}. [inject] adds sampled per-link delays so a
      WAN geometry can be reproduced on localhost. *)

  val addr_of : t -> Net.Topology.pid -> string * int
  val group_of_key : t -> string -> Net.Topology.gid

  val contact_for : t -> string -> Net.Topology.pid
  (** A live, protocol-running member of the key's group — the replica a
      well-routed client should talk to. *)

  val submit : t -> origin:Net.Topology.pid -> Kv.cmd -> Runtime.Msg_id.t
  (** In-process submission at a replica (the test/differential path;
      clients over TCP take the same code path). [origin] must be a
      member of the command's placement group for delivery to be
      observable there. *)

  val crash : t -> Net.Topology.pid -> unit
  (** Stop the replica's node: sockets close, in-flight frames to/from it
      are lost, live peers get the oracle crash notification. *)

  val restart : t -> Net.Topology.pid -> unit
  (** WAL-recover the replica and bring it back as a learner (see module
      doc). Requires a preceding {!crash}. *)

  val synced : t -> Net.Topology.pid -> bool
  (** Whether a restarted learner has caught up with a group peer. *)

  val await : ?timeout:float -> (unit -> bool) -> bool
  (** Poll a condition (2 ms period) until true or [timeout] (default
      10 s) elapses; returns the condition's final value. *)

  val state_of : t -> Net.Topology.pid -> Kv.state
  val log_of : t -> Net.Topology.pid -> Kv.cmd list
  (** Commands applied by the replica, oldest first. *)

  val applied : t -> Net.Topology.pid -> int
  (** [List.length (log_of t pid)] — the usual {!await} condition. *)

  val check_consistency : t -> string list
  (** {!Rsm.check_logs} over the live cluster: ever-crashed replicas are
      held to the prefix standard, the rest to equality. *)

  val run_result : t -> Harness.Run_result.t
  (** The run so far assembled for the simulator's checkers/metrics
      (trace disabled; counters aggregated across restarts). *)

  val stop : t -> unit
  (** Stop every node and close every WAL. Idempotent. *)
end
