(** White-Box Atomic Multicast (leader/convoy-based, PAPERS.md).

    The A1 stage kernel ({!A1_stages}) plus leader convoys: A1's
    group-timestamp scheme with the inter-group traffic collapsed onto
    per-group leaders. As in A1, each destination group runs
    consensus to agree on a group timestamp for every message (stage
    s0), and the final timestamp is the maximum over the destination
    groups' proposals, agreed by a second consensus (stage s2). The
    difference is the exchange in between: instead of every member
    fanning its group's proposal out to {e every process} of every other
    destination group, only the group's {e leader} — its lowest
    non-crashed pid under the oracle failure detector — sends the convoy
    stamp, and only to the {e leaders} of the other destination groups.
    Per message and per destination-group pair the wide-area exchange is
    one message instead of [d * d] (for groups of [d] processes).

    Fault tolerance: every member logs its group's decided stamps
    ([stamp_log], retained for the run and reported via [stats]). On a
    crash notification, the current leader of each group re-sends the
    logged stamps that the crash could have orphaned — its own group's
    crash promotes a new leader who re-sends everything undelivered to
    the other groups' leaders; a foreign group's crash makes leaders
    re-send the stamps of messages destined to that group to its new
    leader. Stamp recording is idempotent and delivered messages ignore
    late stamps, so duplicate re-sends are harmless.

    The second consensus always runs (the kernel gets the caller's
    config with [skip_max_group = false]): non-leader members never see
    foreign stamps, so the final timestamp must reach them through a
    decided value.
    [Config.skip_single_group] is honoured — single-group messages go
    straight to s3, as in A1. Delivery verdicts match A1's across the
    differential scenario grid (asserted by the property suite). *)

include Protocol.S
