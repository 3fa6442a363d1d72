(** Failure-detector abstraction.

    Consensus (and the reliable-multicast relay rule) only need two things
    from a failure detector: a current suspicion predicate and a way to be
    told when suspicions change. Both the idealised {!oracle} detector and
    the message-based {!Heartbeat} detector implement this interface, so
    protocols are agnostic to which one drives them.

    The paper's cost model (Figure 1) assumes oracle-based primitives —
    failure detection contributes neither messages nor latency — so the
    oracle is the default throughout the experiments; the heartbeat detector
    exists to show the protocols also run on a realistic ◇P. *)

type t = {
  suspects : Net.Topology.pid -> bool;
      (** [suspects q] is whether the local process currently suspects [q]
          to have crashed. *)
  subscribe : (unit -> unit) -> unit;
      (** [subscribe f] registers [f] to run after every suspicion change. *)
}

val leader : t -> Net.Topology.pid list -> Net.Topology.pid option
(** [leader t candidates] is the smallest non-suspected candidate — the
    rotating-coordinator rule (an Omega election among [candidates]).
    [None] if every candidate is suspected. *)

val oracle : delay:Des.Sim_time.t -> 'w Runtime.Services.t -> t
(** An eventually-perfect detector implemented on the engine's ground
    truth: a crash is reported exactly [delay] after it happens, and there
    are no false suspicions. Sends no messages (cf. the oracle-based
    consensus/reliable-broadcast algorithms the paper cites for its cost
    accounting). *)
