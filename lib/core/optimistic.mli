(** Optimistic total order for WANs, after Sousa–Pereira–Moura–Oliveira
    ([12] in the paper).

    Exploits spontaneous ordering: the caster broadcasts the message
    directly to every process together with its (logical) send timestamp;
    receivers wait a configurable compensation window and {e optimistically}
    deliver in (send timestamp, id) order — in a WAN with comparable link
    latencies, concurrent messages usually arrive everywhere in that same
    order, making the optimistic delivery almost always right at latency
    degree 1. The {e final} order is fixed by a sequencer process that
    broadcasts its own delivery order; final delivery follows it, at
    latency degree 2 and O(n) messages per broadcast (Figure 1b).

    The protocol is {e non-uniform} (the paper notes this of [12]): no
    acknowledgment round protects against a process delivering and
    crashing, so the agreement property is only guaranteed for correct
    processes. Measured in failure-free runs, like Figure 1. *)

include Protocol.S

val optimistic_mistakes : t -> int
(** How many messages this process optimistically delivered in a position
    that disagrees with the final order — the quantity [12] minimises. *)
