(** A message-based eventually-perfect failure detector (◇P).

    Every monitored process periodically sends heartbeats to its monitors; a
    monitor suspects a peer whose heartbeat is overdue, and — on discovering
    a false suspicion — revokes it and enlarges that peer's timeout, so in
    any run with bounded (if unknown) delays suspicions are eventually
    accurate and complete.

    The detector is generic over the host protocol's wire type: the host
    embeds {!msg} in its wire variant via [wrap] and routes incoming
    heartbeat messages back with {!handle}.

    Note: a heartbeat detector never becomes quiescent (that is inherent —
    it must keep probing), so the quiescence experiments use the oracle
    detector instead; see {!Detector.oracle}. *)

type msg = Ping of { seq : int }

type 'w t

val create :
  ?max_timeout:Des.Sim_time.t ->
  services:'w Runtime.Services.t ->
  wrap:(msg -> 'w) ->
  monitored:Net.Topology.pid list ->
  period:Des.Sim_time.t ->
  timeout:Des.Sim_time.t ->
  unit ->
  'w t
(** [create ~services ~wrap ~monitored ~period ~timeout ()] starts emitting
    heartbeats to [monitored] every [period] and monitoring heartbeats from
    them with the initial [timeout]. The local process is ignored if listed
    in [monitored].

    [max_timeout] (default [32 × timeout]) caps the ◇P back-off: each false
    suspicion still doubles the peer's timeout, but never beyond the cap, so
    a storm of false suspicions cannot push detection latency past the run
    horizon. For eventual accuracy the cap must exceed the network's real
    (unknown) delay bound — the default's 32 doublings of headroom is ample
    for the simulated WAN models.

    The detector also registers with the engine's FD-perturbation hook
    ({!Runtime.Services.t}[.on_fd_perturb]): a perturbation rescales every
    peer's current timeout (clamped to [\[1us, max_timeout\]]) and re-arms
    pending deadlines, which is how the harness's [Fd_storm] nemesis action
    forces false suspicions. *)

val handle : 'w t -> src:Net.Topology.pid -> msg -> unit
(** Feed an incoming heartbeat to the detector. *)

val detector : 'w t -> Detector.t
(** The suspicion interface consumed by consensus. *)

val stop : 'w t -> unit
(** Cancels all timers and stops sending heartbeats (used to end tests). *)
