(** Causal analysis of run traces.

    An independent implementation of the latency-degree metric: instead of
    reading the modified Lamport clocks maintained by the runtime, this
    module reconstructs Lamport's happened-before relation from the trace
    (program order per process + send/receive matching) and computes, for
    each delivery of a message, the maximum number of {e inter-group} sends
    on any causal path from the A-XCast event.

    Cross-checking the two implementations is itself a test: on a
    single-message run they must agree exactly, and in general the clock
    measurement can only exceed the path measurement (concurrent traffic
    inflates clock values but never creates causal paths). The property
    suite asserts both.

    The reconstruction matches a receive to the {e last} send logged
    under the same (envelope id, destination) pair, and only if that send
    comes earlier in the trace than the receive; a receive whose pair has
    no send, or whose last send is logged after it, has no message edge.
    A broadcast fan-out shares one envelope across its destinations, so
    the pair names one delivery; the network never duplicates messages. *)

type t

val of_trace : Runtime.Trace.t -> t
(** Builds the happened-before DAG of a recorded run in time and memory
    O(trace + largest pid + envelope-id range), with no hashing except
    one table of cast ids. Pids must be non-negative. Engine envelope ids
    come from a counter, so their range is at most the number of sends.
    Matching walks each envelope's sends and receives a bounded number of
    times, however wide its fan-out. {!latency_degree} and
    {!causally_precedes} then run one DAG traversal per query;
    {!cast_reachability} runs one vector-clock pass for all casts. *)

val latency_degree : t -> Runtime.Msg_id.t -> int option
(** [latency_degree t id] is the causal-path latency degree of message
    [id]: the maximum over its A-Deliver events of the largest number of
    inter-group sends on any causal path from the A-XCast event. [None] if
    the message was never cast or never delivered, or if delivery is not
    causally reachable from the cast (which would indicate a protocol that
    delivers out of thin air — the checker treats that separately). *)

val causally_precedes :
  t -> Runtime.Msg_id.t -> Runtime.Msg_id.t -> bool
(** [causally_precedes t a b] is whether the A-XCast of [a] happened-before
    the A-XCast of [b]. Each query runs a full DAG traversal; for all-pairs
    questions build a {!reachability} instead. *)

type reachability = {
  r_ids : Runtime.Msg_id.t array;  (** Cast ids, in index order. *)
  r_words : int;  (** Words per row; 63 indices per word. *)
  r_succ : int array array;
      (** Row [a]: bit [b] set iff the A-XCast of [r_ids.(a)]
          happened-before the A-XCast of [r_ids.(b)]. *)
}
(** The happened-before relation restricted to A-XCast events, as one
    bitset row per cast. *)

val cast_reachability : t -> Runtime.Msg_id.t list -> reachability
(** [cast_reachability t ids] builds the relation over the (deduplicated)
    ids that were actually cast, from one forward pass over the trace
    that keeps a vector clock per process, then one comparison per cast
    pair: O(trace * processes + casts^2), versus O(casts^2 * trace) for
    pairwise {!causally_precedes} queries. *)
