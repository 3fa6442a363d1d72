(** The Rodrigues–Guerraoui–Schiper baseline ([10] in the paper).

    Genuine atomic multicast where the {e addressees themselves} agree on
    the timestamp: the message is disseminated to all destination
    processes; each stamps it with its logical clock and sends the stamp to
    every other addressee; once the stamps are in, the maximum is proposed
    to a consensus instance run {e across} the destination groups, and
    messages are delivered in (decided timestamp, id) order by the
    {!Stamp_order} kernel, the same rule as Skeen's.

    Because that consensus spans groups, it costs two further inter-group
    delays — latency degree 4 (Figure 1a) and O(k²d²) messages — which is
    precisely why the paper calls it "not well-suited for wide area
    networks": A1 moves the consensus inside each group and halves the
    latency.

    This implementation collects stamps from {e all} addressees (the
    published algorithm waits for a majority of each group to tolerate
    faults; the failure-free cost Figure 1 reports is identical), so it is
    exercised in failure-free runs only. *)

include Protocol.S
