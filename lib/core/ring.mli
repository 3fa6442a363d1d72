(** The Delporte-Gallet & Fauconnier baseline ([4] in the paper).

    Genuine fault-tolerant atomic multicast where the destination groups of
    a message form a {e chain} (sorted by group id): the message is reliably
    multicast to the first group, which runs consensus to stamp it with its
    group clock and hands it over to the second group; every subsequent
    group stamps it with a strictly larger value, and the {e last} group's
    stamp is the final timestamp, broadcast back to all destination groups
    in an acknowledgment. To avoid delivery-order cycles, a group handles
    one message at a time, waiting for the final acknowledgment before
    stamping the next (as described in the paper's related-work section).

    Messages are delivered in (final timestamp, id) order, with delivery
    blocked while any known-but-unfinalised message could still receive a
    smaller final stamp.

    Costs (Figure 1a): latency degree [k + 1] for [k] destination groups —
    one hop to reach the chain, [k - 1] hand-offs, one acknowledgment hop —
    against A1's constant 2; but only O(kd²) inter-group messages against
    A1's O(k²d²). The tradeoff benchmark quantifies exactly this. *)

include Protocol.S
