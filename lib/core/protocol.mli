(** The common shape of every total-order protocol in this library.

    A protocol instance lives on one process. It is created with the
    process's {!Runtime.Services.t}, the one capability record either
    backend builds, reacts to wire messages via [on_receive], initiates
    messages via [cast] and reports agreed deliveries through the
    [deliver] upcall. The record carries no instrumentation: the harness
    ({!module:Harness.Runner} in the sibling library) instantiates one
    engine per protocol deployment and records each [cast] and [deliver]
    itself ({!Runtime.Engine.record_cast}, {!Runtime.Engine.record_deliver}),
    so latency degrees are measured uniformly and outside protocol
    code. *)

(** Tuning knobs shared by the protocols; every field has a sensible
    default ({!Config.default}). *)
module Config : sig
  (** Which failure detector drives consensus and the reliable-multicast
      relay rule. *)
  type fd_mode =
    | Oracle
        (** The idealised detector built on the engine's ground truth —
            no messages, no false suspicions; the cost model Figure 1
            assumes. *)
    | Heartbeat of { period : Des.Sim_time.t; timeout : Des.Sim_time.t }
        (** The real thing: periodic heartbeats inside each group, ◇P by
            adaptive timeouts. Note that a heartbeat detector never stops
            probing, so deployments using it are never quiescent — run
            them under a horizon. *)

  (** A2's quiescence-prediction strategy: when does a process decide that
      no more messages will be broadcast and stop executing rounds?
      Section 5.3 notes the paper's rule is deliberately simple and that
      "more elaborate prediction strategies based on application behavior
      could be used" — this is that extension point. *)
  type prediction =
    | Stop_when_idle
        (** The paper's rule: a round that delivers nothing does not raise
            the barrier, so rounds stop after the first useless one. *)
    | Linger of { rounds : int }
        (** Keep running up to [rounds] consecutive {e empty} rounds after
            the last useful one before going quiescent. Buys the degree-1
            delivery window for broadcast gaps up to roughly
            [rounds × round duration], at the cost of that many wasted
            rounds per lull; still quiescent, still indulgent. *)

  type t = {
    consensus_timeout : Des.Sim_time.t;
        (** Decision timeout before coordinator rotation. *)
    oracle_delay : Des.Sim_time.t;
        (** Detection delay of the idealised failure detector. *)
    skip_single_group : bool;
        (** A1: single-group messages jump from stage s0 to s3 (paper's
            first optimisation over Fritzke et al.). *)
    skip_max_group : bool;
        (** A1: the group whose proposal equals the final timestamp skips
            stage s2 (paper's second optimisation). *)
    rm_mode : Rmcast.Reliable_multicast.mode;
        (** Reliable-multicast flavour for the initial dissemination. *)
    fd_mode : fd_mode;
        (** Failure detector driving A1's and A2's group consensus. *)
    prediction : prediction;
        (** A2's quiescence prediction (ignored by other protocols). *)
    round_grace : Des.Sim_time.t;
        (** A2: how long a process whose proposal for a barrier-mandated
            round would be {e empty} waits before proposing, so that a
            broadcast landing in an already-running round can still join
            its bundle (the schedule behind Theorem 5.1's degree-1 run).
            A message arriving within the window cancels the wait and
            proposes immediately; the pseudocode's "When" guard permits
            any such scheduling. *)
    null_period : Des.Sim_time.t;
        (** Deterministic-merge baseline ([1]): period of the null messages
            every publisher emits to keep subscriber streams advancing. *)
    opt_window : Des.Sim_time.t;
        (** Optimistic total order ([12]): compensation window receivers
            wait before optimistically delivering, to absorb latency
            differences between links. *)
    batch_max : int;
        (** Throughput lane: maximum application casts packed into one
            batch — one R-MCast dissemination and one ordering payload.
            [1] (the default) disables batching; the cast path is then
            byte-identical to the pre-batching protocol. *)
    batch_delay : Des.Sim_time.t;
        (** Flush timeout of the size-or-timeout batching policy: a
            partially filled batch is flushed this long after its first
            cast. Irrelevant when [batch_max = 1]. *)
    pipeline : int;
        (** In-flight consensus instance window: up to this many ordering
            instances may be undecided at once (instance [i+1] is proposed
            before [i] decides; decisions apply in order). [1] (the
            default) preserves the sequential behaviour bit-for-bit. *)
    conflict : Conflict.t;
        (** Conflict relation for the generic (conflict-aware) multicast
            protocol: which message pairs must be delivered in a consistent
            relative order by common addressees. {!Conflict.total} (the
            default) makes every pair conflict — classic total order.
            Total-order protocols ignore this field. *)
    overlay : Net.Overlay.t option;
        (** The WAN overlay the deployment runs on; [None] (the default)
            is the classic clique model. The overlay-routed protocols
            ({!Flexcast}) read it to route dissemination and stamps; the
            clique-model protocols ignore it and should be deployed over
            {!Net.Overlay.to_latency} so their direct sends pay the
            routed-path delay. *)
  }

  val default : t
  (** A1 as published: both skips on, non-uniform reliable multicast,
      200ms consensus timeout, 50ms oracle delay. *)

  val throughput : t
  (** The high-throughput lane: {!default} with [batch_max = 8],
      [batch_delay = 2ms], [pipeline = 4]. Safety-equivalent to {!default}
      (asserted by the batching differentials); trades per-cast latency
      slack for saturation throughput. *)

  val batching : t -> bool
  (** [batch_max > 1]. *)

  val fritzke : t
  (** The Fritzke et al. [5] baseline: no stage skipping. The initial
      dissemination keeps the eager (oracle-relayed) reliable multicast:
      Figure 1 analyses [5] with the oracle-based uniform primitive of
      Frolund & Pedone [6], whose latency degree is 1 and whose
      failure-free message pattern is exactly the eager one. (The
      {!Rmcast.Reliable_multicast.Ack_uniform} mode remains available as a
      no-oracle uniform multicast, at one extra message delay.) *)
end

module type S = sig
  type t

  type wire
  (** The protocol's wire message type (one engine payload type per
      deployment). *)

  val name : string

  val tag : wire -> string
  (** Trace label of a wire message's kind. *)

  val create :
    services:wire Runtime.Services.t ->
    config:Config.t ->
    deliver:(Msg.t -> unit) ->
    t
  (** One instance per process. [deliver] is called exactly once per
      A-Delivered message, in the local delivery order. *)

  val cast : t -> Msg.t -> unit
  (** A-XCast a message (A-MCast or A-BCast depending on [msg.dest]).
      Must be called on a process allowed by the protocol (any process for
      the multicast protocols; any process for broadcast protocols, with
      [dest] covering all groups). *)

  val on_receive : t -> src:Net.Topology.pid -> wire -> unit

  val stats : t -> (string * int) list
  (** Retained-state counters for this process (e.g. undecided consensus
      instances kept live, reliable-multicast entries not yet reclaimed).
      Labels are protocol-defined; the harness sums them across processes
      so soaks can report state growth. Protocols without retained state
      report []. *)
end
