(** Generic (conflict-aware) atomic multicast.

    Skeen's timestamp scheme relaxed to a {e partial} delivery order
    (generic broadcast, Pedone & Schiper; generic multicast, Bolina et
    al. 2024): only message pairs that {e conflict} under the deployment's
    {!Protocol.Config.t.conflict} relation are delivered in a consistent
    relative order by their common addressees. The stamp exchange is
    unchanged — every non-solo message is stamped by all its addressees
    and finalised at the maximum stamp — but the delivery test only holds
    a finalised message behind {e conflicting} pending messages, so
    independent conflict classes drain concurrently instead of queueing
    behind one global [(ts, id)] frontier.

    Two tiers, by the message's conflict class ({!Conflict.class_of}):

    - {e solo} messages (class [None]: they conflict with nothing) skip
      ordering entirely — delivered at Data arrival, no stamps, no clock
      traffic. Reliable-multicast cost, latency degree 1.
    - messages with a conflict class wait only for their own class: the
      pending set is partitioned into per-class {!Stamp_order} indices and
      each class is an independent Skeen instance sharing the process
      clock. [Conflict.total] collapses to a single class — the delivery
      order (and every checker verdict) is then exactly Skeen's.

    Soundness of the relaxed test: if addressee [q] delivers [m2] before
    first seeing a conflicting [m1], then [q]'s clock is at least
    [final m2] from that point on, so [q]'s stamp for [m1] — hence
    [final m1] — exceeds [final m2]; every common addressee therefore
    agrees on the [(final, id)] order of any conflicting pair it holds
    both members of. Failure-free model, like {!Skeen}. *)

include Protocol.S
