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
    one table of cast ids. Pids must lie in \[0, 2{^30}). Engine envelope
    ids come from a counter, so their range is at most the number of
    sends.
    Matching walks each envelope's sends and receives a bounded number of
    times, however wide its fan-out. {!latency_degree} and
    {!causally_precedes} then run one DAG traversal per query. *)

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
    questions use {!cast_clocks}. *)

type cast_clock = {
  id : Runtime.Msg_id.t;
  caster : int;  (** The pid of the id's first [Cast] entry, its A-XCast. *)
  clock : int array;
      (** Per pid, how many of that pid's [Cast] entries happened-before
          or are this A-XCast. Never mutated. *)
}

val cast_clocks : Runtime.Trace.t -> cast_clock array
(** The A-XCast of every id with a [Cast] entry, in trace order. The cast
    [a] happened-before the cast [b <> a] iff
    [b.clock.(a.caster) >= a.clock.(a.caster)]. One forward pass over the
    trace, with the receive matching of {!of_trace}, in time
    O(trace + processes * (casts + receives)). A send keeps no copy; a
    clock is allocated only at a cast and at a receive that brings a cast
    the receiver had not seen. *)
