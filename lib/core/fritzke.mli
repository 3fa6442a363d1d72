(** The Fritzke–Ingels–Mostéfaoui–Raynal baseline ([5] in the paper).

    Same four-stage timestamping structure as {!A1} — A1 is explicitly "an
    optimized version of [5]" — but with the two optimisations disabled and
    a uniform reliable multicast for dissemination:

    - every message walks through all four stages, even when addressed to a
      single group (an extra consensus instance per message);
    - the group that proposed the maximum timestamp still runs stage s2
      (another extra consensus instance);
    - the dissemination plays the role of [5]'s {e uniform} reliable
      multicast; as in Figure 1's cost model we use the oracle-based
      uniform primitive of Frolund & Pedone [6] (latency degree 1, same
      failure-free message pattern as the eager non-uniform one).

    The caller's config applies except for the two skips, which are always
    off: under {!Protocol.Config.default} the baseline runs
    {!Protocol.Config.fritzke}, and under [{default with rm_mode =
    Ack_uniform}] it disseminates with the uniform reliable multicast's
    [Copy] acks.

    Latency degree is still 2 for multi-group messages (Figure 1a): the
    stage skips save {e intra-group} work, not inter-group delays. The
    ablation benchmark quantifies exactly that — consensus instances and
    intra-group messages, A1 vs this baseline. *)

include Protocol.S

val consensus_instances_executed : t -> int
(** See {!A1.consensus_instances_executed}; the ablation benchmark compares
    the two. *)
