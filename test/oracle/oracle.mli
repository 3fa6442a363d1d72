(** Naive and table-based twins of the indexed checks in
    {!Harness.Checker}: differential oracles, not run-time checks. On
    every run each oracle and its indexed counterpart must report the
    same violations (the property suites assert this on randomised runs,
    [verify_bench] on soak-scale ones): for integrity, validity and
    agreement the same list, order included; for prefix and conflict
    order the same strings. The order oracles enumerate pairs the obvious
    way — every pid pair, every cast pair, one sequence scan per lookup —
    so they are fine for tests and small benches, not for soak-scale
    traces. The conflict oracle judges each pair with
    {!Harness.Checker.conflict_pair_violation}, so it can disagree with
    the indexed check only in enumeration. *)

type violation = Harness.Checker.violation

val uniform_integrity : Harness.Run_result.t -> violation list
(** Per-pid delivered-id tables and a set of cast ids, one fold over the
    deliveries. *)

val validity : Harness.Run_result.t -> violation list
(** Every cast by a correct process against per-pid delivered-id tables. *)

val uniform_agreement : Harness.Run_result.t -> violation list
(** Every delivered id, in a [Msg_id.Set], against per-pid delivered-id
    tables. *)

val uniform_prefix_order : Harness.Run_result.t -> violation list
(** Every pid pair, each sequence projected on the messages addressed to
    both pids' groups. *)

val conflict_order :
  conflict:Amcast.Conflict.t -> Harness.Run_result.t -> violation list
(** Every conflicting cast pair against every pair of common addressees. *)

val genuineness :
  ?overlay:Net.Overlay.t -> Harness.Run_result.t -> violation list
(** Every traced send against the list of casters, addressees and (with
    [overlay]) routing relays. Raises [Invalid_argument] on a run recorded
    without a trace, like {!Harness.Checker.genuineness}. *)

val causal_delivery_order : Harness.Run_result.t -> violation list
(** Every causally ordered cast pair against every process's sequence,
    using {!Harness.Causal.causally_precedes}. Raises [Invalid_argument]
    on a run recorded without a trace. *)
