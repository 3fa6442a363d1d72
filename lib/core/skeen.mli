(** Skeen's atomic multicast (Birman & Joseph [2], failure-free).

    The ancestor of every timestamp-based multicast in this library, in its
    decentralised form: the caster sends [m] to all addressees; each
    addressee stamps [m] with its logical clock and sends the stamp to every
    other addressee; the final timestamp is the maximum stamp, and messages
    are delivered in [(final ts, id)] order once no pending message could
    still receive a smaller final timestamp.

    Latency degree 2 for multi-group messages — which, by the lower bound of
    Section 3, turns out to be optimal: as the paper notes, Skeen's
    algorithm was optimal all along, "a result that has apparently been left
    unnoticed by the scientific community for more than 20 years". A1 is the
    fault-tolerant version of the same idea (clocks maintained by consensus
    inside groups instead of by individual processes).

    The clock, the pending set and the delivery rule live in
    {!Stamp_order}, the kernel this protocol shares with {!Generic},
    {!Flexcast} and {!Scalable}; this module keeps only the wire and the
    addressee fan-out.

    This implementation assumes the failure-free model of Section 3 (no
    crashes, reliable links); it exists as the historical baseline and for
    the lower-bound experiments. *)

include Protocol.S
