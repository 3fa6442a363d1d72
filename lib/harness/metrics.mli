(** Quantities the paper reports, computed from run results.

    The central one is the {e latency degree} ∆(m, R) of Section 2.3: the
    difference between the largest modified-Lamport-clock value at an
    A-Deliver(m) event and the clock value at the A-XCast(m) event. Since
    the runtime maintains the modified clocks itself, this is measured, not
    self-reported by protocols. *)

val latency_degree : Run_result.t -> Runtime.Msg_id.t -> int option
(** ∆(m, R) over the processes that delivered [m]; [None] if nobody did. *)

val latency_degrees : Run_result.t -> (Runtime.Msg_id.t * int option) list
(** One entry per cast message, in cast order. *)

val max_latency_degree : Run_result.t -> int option
(** Largest ∆ over all delivered messages of the run. *)

val min_latency_degree : Run_result.t -> int option

val delivery_latency :
  Run_result.t -> Runtime.Msg_id.t -> Des.Sim_time.t option
(** Wall-clock (virtual) time from cast to last delivery. *)

val mean_delivery_latency_ms : Run_result.t -> float option
(** Mean over delivered messages of cast-to-last-delivery, milliseconds. *)

val delivery_latencies_ms : Run_result.t -> float list
(** Per-message cast-to-last-delivery latencies in milliseconds, in cast
    order (messages never delivered are skipped). *)

val delivery_latency_percentile_ms : Run_result.t -> float -> float option
(** {!Stats.percentile} of {!delivery_latencies_ms} — e.g. p50/p99
    saturation-curve points. *)

val messages_by_tag : Run_result.t -> (string * int) list
(** Inter-group send counts per wire-message kind, sorted by tag. *)

val last_send_time : Run_result.t -> Des.Sim_time.t option
(** Instant of the last send in the run; [None] if nothing was sent. The
    quiescence experiments check that this stabilises once casts stop. *)

val sends_after : Run_result.t -> Des.Sim_time.t -> int
(** Number of sends strictly after a given instant. *)

val delivered_count : Run_result.t -> int
(** Number of distinct messages delivered by at least one process. *)
