(** Correctness oracles for the agreement properties of Section 2.2.

    Each check inspects a finished run and returns human-readable violation
    descriptions (empty list = property holds on this run). The property
    tests feed randomised runs through {!check_all}.

    The prefix-order check exploits a closure property: per-process
    delivery sequences only grow, so if the {e final} projected sequences
    of two processes are prefix-related, the projected sequences at every
    earlier instant were prefix-related too. Checking the end state
    therefore checks the property at all times [t].

    Each check builds its own violation list in the pass that detects
    the violation; the library has one implementation per property. The
    naive all-pairs twins that the property suites and [verify_bench]
    compare these checks against live outside the library, in
    [test/oracle/]. *)

type violation = string

val uniform_integrity : Run_result.t -> violation list
(** Each process delivers a message at most once, only if addressed to its
    group, and only if the message was cast. *)

val validity : Run_result.t -> violation list
(** If a correct process casts [m], every correct addressee delivers [m].
    Only meaningful on runs that reached quiescence ([drained]); on
    horizon-bounded runs this check is skipped. *)

val uniform_agreement : Run_result.t -> violation list
(** If {e any} process (even one that later crashed) delivers [m], every
    correct addressee delivers [m]. Skipped on horizon-bounded runs. *)

val uniform_prefix_order : Run_result.t -> violation list
(** For any two processes, the delivery sequences projected on their common
    messages are prefix-related. *)

val conflict_order : conflict:Amcast.Conflict.t -> Run_result.t -> violation list
(** The relaxed {e partial}-order check of generic multicast: only pairs
    that conflict under [conflict] must be delivered in a consistent
    relative order by their common addressees. For each conflicting cast
    pair and each pair of common addressees, a violation is a
    disagreement (both delivered both, in opposite orders), a hole (one
    delivered both, the other delivered the later without the earlier —
    it skipped a conflicting predecessor) or a crossed pair (each
    delivered only one side — whichever way the pair is ordered, someone
    already skipped a conflicting predecessor). Non-conflicting pairs are
    unconstrained. Like the prefix check this is a safety property closed
    under sequence extension, so checking the end state checks every
    earlier instant; with [Conflict.total] it flags exactly the runs the
    prefix check flags (the violation strings differ). *)

(** How one process's delivery sequence relates to an ordered message
    pair [(m1, m2)]: both delivered, forwards or reversed, only one of
    them, or neither. *)
type pair_obs = Both_fwd | Both_rev | Only_fst | Only_snd | Neither

val pair_obs : int option -> int option -> pair_obs
(** [pair_obs p1 p2] from the first-delivery positions of [m1] and [m2]
    in one process's sequence ([None] = not delivered). *)

val conflict_pair_violation :
  Amcast.Msg.t ->
  Amcast.Msg.t ->
  Net.Topology.pid ->
  pair_obs ->
  Net.Topology.pid ->
  pair_obs ->
  violation option
(** [conflict_pair_violation m1 m2 p op q oq] is the verdict of
    {!conflict_order} on one conflicting pair [(m1, m2)] and two of its
    common addressees [p] and [q], observed as [op] and [oq]: a
    disagreement, a hole or a crossed pair, else [None]. Exposed so that
    a differential oracle enumerating pairs its own (naive) way still
    shares this one definition of what counts as a violation, and the
    two can only diverge in enumeration. *)

val genuineness : ?overlay:Net.Overlay.t -> Run_result.t -> violation list
(** Only addressees and casters take part: every process that appears as
    the source or destination of any network send must be the caster or an
    addressee of some cast message. (Prop. 3.2's premise; holds for A1 and
    trivially fails for broadcast-based multicast.)

    [overlay] relaxes the property to {e overlay genuineness} (FlexCast's
    guarantee): for each cast, the relays — the lowest pid — of the groups
    on its routing paths ({!Net.Overlay.participants}: origin-to-
    destination routes plus destination-pair stamp routes) are also
    allowed. Groups off those paths must still be completely silent.

    Reads the trace. Raises [Invalid_argument] if the run was recorded
    without one ([not (Runtime.Trace.enabled r.trace)]), which would
    otherwise pass vacuously. *)

val quiescence : Run_result.t -> violation list
(** The run drained: after finitely many casts the deployment stopped
    sending. Only meaningful for runs executed without a horizon. *)

val causal_delivery_order : Run_result.t -> violation list
(** If the A-XCast of [m1] happened-before the A-XCast of [m2] (e.g. the
    caster of [m2] had already delivered [m1]), then no process delivers
    [m2] before [m1]. Not part of the Section 2.2 specification — and
    {e not} guaranteed by timestamp-based multicast in general: in A1, a
    message causally after [m1] but addressed to other groups can pick up
    a smaller final timestamp. The happened-before relation here follows
    every traced message, protocol traffic included, so it is wider than
    what A2 orders. A2 guarantees the order only through deliveries and
    same-origin sequence numbers: if the caster of [m2] delivered [m1]
    before casting [m2], [m2] lands in a strictly later round, and two
    casts from one origin are ordered by sequence number. Under load this
    check flags A2 pairs outside that guarantee (different casters, the
    later caster had not delivered the earlier message), and the A2 suite
    checks that every flag is such a pair.

    Runs in O((trace + deliveries) * processes), plus, per flagged
    delivery, a walk over the casts up to its process's latest delivered
    one. Reads the trace. Raises [Invalid_argument] if the run was
    recorded without one, like {!genuineness}. *)

val check_all :
  ?expect_genuine:bool ->
  ?check_quiescence:bool ->
  ?liveness_from:Des.Sim_time.t ->
  ?conflict:Amcast.Conflict.t ->
  ?overlay:Net.Overlay.t ->
  Run_result.t ->
  violation list
(** Integrity + validity + agreement + prefix order, plus genuineness when
    [expect_genuine] and quiescence when [check_quiescence] (both default
    false). [expect_genuine] reads the trace and raises
    [Invalid_argument] on a run recorded without one; the other checks
    read only the cast and delivery logs. [check_quiescence] only makes
    sense on runs executed without a horizon by a protocol that stops
    scheduling when idle. Causal delivery order is owed by no catalogue
    entry, so it is not part of this set; call
    {!causal_delivery_order} directly.

    [conflict] selects the ordering property: absent or
    {!Amcast.Conflict.Total}, the total-order prefix check (byte-identical
    verdicts either way); any other relation, the relaxed
    {!conflict_order} check — what a generic-multicast deployment owes.

    [overlay] makes the genuineness check overlay-aware (see
    {!genuineness}); it only matters when [expect_genuine] is set.

    [liveness_from] (default {!Des.Sim_time.zero}) is the safety/liveness
    split for runs under a fault plan: the liveness checks — validity,
    agreement and quiescence — are only applied if the run's [end_time]
    reached [liveness_from] (pass {!Nemesis.liveness_from} of the plan,
    i.e. its final heal). The safety checks are applied unconditionally:
    no fault schedule excuses an ordering, integrity or genuineness
    violation. *)

val owed :
  Amcast.Catalogue.entry ->
  Amcast.Protocol.Config.t ->
  Run_result.t ->
  violation list
(** [owed entry config r] is what a run of [entry] under [config] owes:
    {!check_all} with genuineness iff the entry is [genuine] (overlay-aware
    when [config] carries an overlay) and the ordering check that
    [config]'s conflict relation selects — prefix order under
    {!Amcast.Conflict.Total}, the relaxed {!conflict_order} otherwise.
    Reads the trace when the entry is genuine. *)
