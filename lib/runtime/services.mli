(** The capability record handed to every protocol instance.

    Protocols are written as event-driven state machines: they react to
    received wire messages and to timers, and act on the world exclusively
    through this record. This keeps protocol modules independent of the
    backend's internals and lets them stack (e.g. atomic multicast over
    consensus) by sharing one [Services.t] and one wire type.

    A backend builds one value of this type per process. Two backends
    do:

    - the discrete-event engine ({!Engine.services}) — virtual time,
      deterministic given the seed; the twin every scenario, checker and
      model-checking run executes against;
    - the real one ([Transport.Tcp.services] in [lib/transport]) — Unix
      TCP sockets on localhost or a real network, monotonic-clock timers,
      optional per-link delay injection reproducing the WAN shapes of
      {!Net.Latency} on localhost.

    The contract both must honour, so that the same protocol code is
    correct on either:

    - [send]/[send_multi] are asynchronous, reliable to non-crashed
      destinations, and apply the modified Lamport clock rule
      (inter-group sends carry LC+1; the sender's own clock never advances
      on a send);
    - links are {e not} FIFO: two sends on one (src, dst) link may arrive
      in either order (the DES reorders under latency jitter, as the
      asynchronous model allows, cf. {!Net.Network.send_multi}), so protocols
      must not rely on per-link order;
    - receive handlers and timer callbacks of one process never run
      concurrently with each other (single-threaded process model);
    - [set_timer] is one-shot and the callback is skipped if the process
      has crashed by the time it fires;
    - [on_crash_detected] notifications fire [delay] after the crash
      instant and never on the crashed process itself; processes already
      crashed at subscription are reported once each, [delay] after the
      subscription, in ascending pid order.

    The harness's own measurement — the clock ticks at A-XCast and
    A-Deliver and the cast/delivery log — is not part of this record: the
    caller that casts and receives deliveries records them
    ({!Engine.record_cast}, {!Engine.record_deliver}). *)

type 'w t = {
  self : Net.Topology.pid;  (** The process this instance runs on. *)
  topology : Net.Topology.t;
  send : dst:Net.Topology.pid -> 'w -> unit;
      (** Asynchronous send. Applies the modified Lamport clock rule
          (inter-group sends tick the carried clock), records the send in
          the trace and hands the message to the network. Silently drops
          if the sending process has crashed. *)
  send_multi : Net.Topology.pid list -> 'w -> unit;
      (** Fan-out send: the same receives, arrival times and latency
          draws as iterating {!field-send} over the list. The DES carries
          the whole fan-out in one scheduler event and one envelope (the
          Send trace entries share an [env] id), which re-arms for its next
          destination when it pops. So at a tie, an event scheduled after
          this call but before a later destination's turn goes first,
          where after iterated sends it would go second. *)
  now : unit -> Des.Sim_time.t;
      (** Virtual time on the DES; microseconds of monotonic clock since
          the deployment epoch on a real backend. *)
  set_timer : after:Des.Sim_time.t -> (unit -> unit) -> int;
      (** One-shot timer; the callback is skipped if the process has crashed
          by the time it fires. Returns a handle for {!cancel_timer}. *)
  cancel_timer : int -> unit;
  lc : unit -> Lclock.t;
      (** The process's modified Lamport clock, maintained by the backend
          at message receipt. *)
  alive : Net.Topology.pid -> bool;
      (** Ground-truth crash oracle. Only failure-detector implementations
          should consult it (Section 2's algorithms assume oracle-based
          consensus and reliable multicast, cf. Figure 1's cost model). *)
  on_crash_detected : delay:Des.Sim_time.t -> (Net.Topology.pid -> unit) -> unit;
      (** Subscribe to crash notifications delivered [delay] after the
          crash instant — the idealised eventually-perfect failure
          detector. Processes that crashed before the subscription are
          reported too, once each, [delay] after the subscription, in
          ascending pid order; subscribing costs time in the number of
          those processes, not in the number of all processes, so every
          process of a deployment may subscribe at spawn. The callback is
          skipped if the subscribing process has itself crashed by the
          time the notification fires (a dead detector reports
          nothing). *)
  on_fd_perturb : (float -> unit) -> unit;
      (** Subscribe to failure-detector timeout perturbations
          ({!Runtime.Engine.perturb_fd}, driven by the harness's [Fd_storm]
          nemesis action): the callback receives a scale factor to apply to
          the detector's adaptive timeouts. Subscribers are called in
          registration order. Skipped for crashed processes; detectors
          without adaptive timeouts simply don't subscribe. *)
}

val send_all : 'w t -> Net.Topology.pid list -> 'w -> unit
(** Send the same message to every listed process (including possibly
    [self]; self-sends go through the network like any other). *)

val send_multi : 'w t -> Net.Topology.pid list -> 'w -> unit
(** Like {!send_all} but through the single-event fan-out lane
    ({!field-send_multi}). *)

val send_group : 'w t -> Net.Topology.gid -> 'w -> unit
(** Send to every member of a group. *)

val my_group : 'w t -> Net.Topology.gid
