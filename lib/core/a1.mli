(** Algorithm A1 — genuine atomic multicast for WANs (Section 4).

    Skeen-style timestamping made fault-tolerant: inside each destination
    group, a logical clock [K] is maintained by running one consensus
    instance per clock tick, and every multicast message [m] walks through
    four stages:

    - {b s0} — [m] is reliably multicast (non-uniformly) to its destination
      groups; each group proposes it to its next consensus instance, and
      the deciding instance number is the group's timestamp proposal;
    - {b s1} — destination groups exchange their proposals in [(TS, m)]
      messages; the final timestamp is the maximum proposal;
    - {b s2} — groups whose proposal was below the maximum run one more
      consensus instance to push their clock past the final timestamp;
    - {b s3} — [m] is A-Delivered once its [(ts, id)] pair is minimal among
      all pending messages.

    The two optimisations over Fritzke et al. [5] are implemented and
    individually switchable through {!Protocol.Config}: single-group
    messages jump from s0 straight to s3, and the group that proposed the
    maximum skips s2 (its clock is already beyond the final timestamp).

    Latency degree: 0 for a message multicast to the caster's own group
    only, 1 to a single remote group, and 2 to multiple groups — which
    Proposition 3.1/3.2 shows is optimal for a genuine algorithm.

    Genuineness: every message of the protocol (reliable multicast, group
    consensus, TS exchange) stays within [m.dest ∪ {caster}].

    The stage machine itself lives in {!A1_stages}, shared with
    {!Whitebox}; this module is its wire and its (TS, m) exchange. *)

module Stage = A1_stages.Stage

include Protocol.S

val consensus_instances_executed : t -> int
(** How many consensus instances this process has decided; the ablation
    benchmark compares this with and without stage skipping. *)
