(** Uniform consensus inside a set of participants.

    The paper assumes that "in each group consensus is solvable" and builds
    both algorithms on a uniform consensus black box satisfying uniform
    integrity, termination and uniform agreement (Section 2.2). This module
    provides that black box: multi-instance single-decree Paxos with a
    rotating coordinator driven by a {!Fd.Detector.t}.

    Structure per instance (ballot [b] is coordinated by participant
    [b mod n]):

    - ballot 0 skips the prepare phase (no smaller ballot can exist);
    - a participant that proposed (or adopted acceptor state) arms a
      decision timeout; on expiry — or on a suspicion change — the smallest
      non-suspected participant takes over with a higher ballot of its own.

    The module runs in one of two modes, selected by [?fast_lanes]:

    {b Reference mode} ([fast_lanes = false]) is the all-to-all message
    pattern: every acceptor broadcasts [Accepted] to all participants and
    every decider broadcasts [Decide] once, so a failure-free instance
    costs an [Accept] fan-out plus an all-to-all [Accepted] and an
    all-to-all [Decide] (2n² + 2n − 1 messages). Two baselines need it at
    run time: the ring baseline, whose inter-group fan-outs are gated on
    each member's own [Decide], and the scalable baseline, whose
    participants span groups. Under a coordinator-only [Decide] their
    inter-group message counts would change.

    {b Fast mode} ([fast_lanes = true], the default) is the Multi-Paxos
    steady state:

    - {e coordinator lease}: a stable leader pre-promises a ballot once for
      {e all} instances ([Lease_prepare]/[Lease_promise], generalizing the
      ballot-0 fast path to any leader) and skips phase 1 per instance;
    - {e single-shot vote and decide}: acceptors send [Accepted] only to
      the ballot's coordinator, which alone counts votes and broadcasts
      [Decide] — 4n − 1 messages per steady-state instance; stragglers
      recover via their decision timers, answered by point-to-point
      [Decide] replies from any decided participant;
    - {e decided-instance GC}: watermarks piggybacked on [Accepted] let the
      coordinator compute a floor below which every non-suspected
      participant has decided; the floor rides on [Decide] and each process
      prunes its instance table up to [min floor own_watermark]. With an
      accurate detector (the oracle) pruning is always safe; under a
      wrongly-suspecting ◇P a falsely suspected process may have to wait
      for its next instances instead of back-filling a pruned one.

    Both modes decide the same values (Paxos safety is mode-independent —
    the lease majority intersects every chosen quorum); only the
    {e intra-group} message complexity differs, so the paper's inter-group
    metrics are unaffected.

    Instances are independent; decisions may be reported out of order and
    callers sequence them as they see fit (both A1 and A2 consume decisions
    strictly in their own instance order).

    {b State layout.} Instance records live in one integer-keyed hash
    table, which is kept because suspicion changes walk it and re-drive
    instances in its iteration order. Everything inside an instance is
    indexed by participant rank (the position in the sorted participant
    array). Phase-1 promises are a presence byte string plus an array of
    accepted states, allocated at the first promise. Votes are a short
    list with one entry per ballot, each a presence byte string and a
    count. Ballot values are an association list. Both modes use this
    layout. A message costs one table lookup, shared by the retirement
    check, the decided-instance reply and instance creation, plus a few
    array writes.

    The implementation halts: once an instance decides, every timer for it
    is cancelled and each process sends at most one more [Decide], so runs
    with finitely many proposals are quiescent — a property Proposition A.9
    (quiescence of Algorithm A2) relies on. *)

type 'v msg
(** Wire messages exchanged by the protocol, carrying values of type ['v].
    Embed in the host protocol's wire type and route back via {!handle}. *)

val tag : 'v msg -> string
(** Short label of the message kind (["cons.accept"], ...) for traces. *)

val pp_msg : Format.formatter -> 'v msg -> unit

type ('v, 'w) t

val create :
  services:'w Runtime.Services.t ->
  wrap:('v msg -> 'w) ->
  participants:Net.Topology.pid list ->
  detector:Fd.Detector.t ->
  ?timeout:Des.Sim_time.t ->
  ?fast_lanes:bool ->
  on_decide:(instance:int -> 'v -> unit) ->
  unit ->
  ('v, 'w) t
(** One consensus endpoint on the local process. [participants] (which must
    include the local process and be identical everywhere) fixes the quorum
    system: a majority of participants. [on_decide] fires exactly once per
    instance, with the decided value. [timeout] (default 200ms) is the
    decision timeout that triggers coordinator rotation. [fast_lanes]
    (default true) selects the Multi-Paxos steady-state message pattern
    (see the module docs); pass [false] for the reference pattern. *)

val propose : ('v, 'w) t -> instance:int -> 'v -> unit
(** Submit the local proposal for an instance. At most one proposal per
    instance per process is used (later ones are ignored); proposing on a
    decided instance is a no-op. *)

val handle : ('v, 'w) t -> src:Net.Topology.pid -> 'v msg -> unit
(** Feed an incoming consensus message. *)

val decided_value : ('v, 'w) t -> instance:int -> 'v option
(** The locally decided value of an instance, if still retained — in fast
    mode, garbage-collected instances report [None] (hosts consume
    decisions through [on_decide], which fires before any pruning). *)

val highest_decided : ('v, 'w) t -> int option
(** Largest instance number the local process has decided, if any. *)

val note_consumed : ('v, 'w) t -> upto:int -> unit
(** Fast-lane watermark hook for hosts whose instance numbering skips
    (A1's group clock can jump): declares that every instance [<= upto] is
    either locally decided or will never be proposed by anyone, letting the
    GC watermark advance across the gaps. No-op in reference mode. *)

val retained_instances : ('v, 'w) t -> int
(** Number of instance records currently held (decided-but-unpruned plus
    in-progress) — the state-growth figure soak summaries report. *)

val pruned_upto : ('v, 'w) t -> int
(** Instances [1..pruned_upto] have been decided and reclaimed. *)

val decided_upto : ('v, 'w) t -> int
(** The local contiguous-decided watermark (fast mode; 0 in reference). *)

val holds_lease : ('v, 'w) t -> bool
(** Whether the local process currently holds a coordinator lease. *)
