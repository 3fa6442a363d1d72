(** FlexCast-style genuine atomic multicast over a WAN overlay.

    Skeen's decentralised timestamping, generalised to route along a
    non-clique overlay ({!Net.Overlay}) instead of assuming every group
    pair is directly connected. Dissemination forwards the message hop
    by hop through the overlay: each interior group's relay (its lowest
    pid) timestamps the message in transit — it bumps its logical clock
    and folds it into the carried [path_ts], so an addressee's stamp
    dominates every interior clock on its path (Lamport monotonicity
    along routes). Addressee stamps are exchanged over the same overlay
    (forwarded unmodified — every addressee must fold the {e same} stamp
    values into the final maximum), and delivery is in
    [(final ts, id)] order by Skeen's own {!Stamp_order} kernel.

    Genuine {e relative to the overlay}: only the origin, the addressees
    and the relays of groups on the routing paths (origin-to-destination
    routes plus destination-pair stamp routes —
    {!Net.Overlay.participants}) ever send or receive a message. Groups
    off those paths stay silent, which the overlay-aware checker
    asserts.

    On a clique overlay every group pair is adjacent, no interior relay
    exists and [path_ts] stays 0 — the protocol's sends, clocks and
    delivery sequences are identical to {!Skeen}'s, per-pid and
    bit-for-bit (asserted by the differential suite).

    Failure-free like {!Skeen}: the relays are deterministic single
    processes, so this baseline assumes the crash-free model of the
    FlexCast evaluation. The overlay comes from
    [config.overlay]; [None] defaults to a clique over the topology's
    groups. *)

include Protocol.S
