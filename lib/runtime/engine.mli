(** The simulation engine: wires processes, network, clocks and faults.

    An engine hosts one protocol deployment: every process runs a node with
    the same wire type ['w]. The engine owns the scheduler, the network, the
    per-process modified Lamport clocks, the trace and the crash schedule.
    It is the DES backend of the capability record: {!services} builds each
    process's {!Services.t}. The harness's measurement stays out of that
    record — the caller that casts and receives deliveries reports them
    through {!record_cast} and {!record_deliver}.

    Determinism: a run is a pure function of (topology, latency model, seed,
    spawned program, scheduled actions). Two engines created with the same
    arguments and driven identically produce identical traces. *)

type 'w node = { on_receive : src:Net.Topology.pid -> 'w -> unit }
(** A process's reaction to an incoming wire message. *)

(** What happens to messages a process had in flight when it crashes.
    Quasi-reliable links only guarantee delivery between correct processes,
    so a crashing process may lose any subset of its unreceived sends. *)
type drop_spec =
  | Keep_inflight  (** A "clean" crash: everything already sent arrives. *)
  | Lose_all_inflight  (** Every unreceived message from the process is lost. *)
  | Lose_to of Net.Topology.pid list
      (** Unreceived messages to the listed processes are lost. *)
  | Lose_each_with_probability of float
      (** Each unreceived message is lost independently with probability
          [p] (drawn from the engine's fault stream). *)

type 'w t

val create :
  ?seed:int ->
  ?latency:Net.Latency.t ->
  ?record_trace:bool ->
  tag:('w -> string) ->
  Net.Topology.t ->
  'w t
(** [create ~tag topology] is a fresh engine. [tag] labels wire messages in
    the trace (used for per-kind message statistics). Defaults: [seed] 0,
    {!Net.Latency.wan_default}, trace recording on. *)

val spawn : 'w t -> Net.Topology.pid -> ('w Services.t -> 'a * 'w node) -> 'a
(** [spawn t p make] creates the node for process [p]: [make] receives [p]'s
    capability record and returns the protocol state (handed back to the
    caller) and the receive handler.
    @raise Invalid_argument if [p] already has a node. *)

val services : 'w t -> Net.Topology.pid -> 'w Services.t
(** The DES capability record of one process: virtual-time [now]/timers,
    trace-recording sends through the simulated network, the oracle
    crash-notification stream. {!spawn} hands this record to [make]. *)

val record_cast : 'w t -> Net.Topology.pid -> Msg_id.t -> unit
(** [record_cast t pid id] marks the A-XCast of [id] at [pid]: a local
    event, so [pid]'s clock moves by {!Lclock.on_local} (rule 1 leaves it
    unchanged); the [Cast] trace entry carries the resulting value. *)

val record_deliver : 'w t -> Net.Topology.pid -> Msg_id.t -> unit
(** [record_deliver t pid id] marks the A-Deliver of [id] at [pid], with
    the same clock rule as {!record_cast}. *)

val schedule_crash :
  ?drop:drop_spec -> 'w t -> at:Des.Sim_time.t -> Net.Topology.pid -> unit
(** Schedules a crash-stop failure: from the crash instant the process sends
    nothing, receives nothing, and its timers are inert. [drop] (default
    {!Keep_inflight}) selects the fate of its in-flight messages. *)

val at :
  ?tag:Des.Scheduler.Tag.t -> 'w t -> Des.Sim_time.t -> (unit -> unit) -> unit
(** Schedules an external action (e.g. an A-XCast from the workload).
    [tag] (default {!Des.Scheduler.Tag.generic}) attaches commutativity
    metadata for controlled scheduling — the runner tags workload casts
    with their origin so the model checker can commute them against
    deliveries at other processes. *)

val perturb_fd : 'w t -> float -> unit
(** [perturb_fd t s] multiplies the adaptive timeouts of every failure
    detector registered through {!Services.t}[.on_fd_perturb] by [s],
    skipping detectors whose host process has crashed. [s < 1] is an
    FD storm: shrunk timeouts force false suspicions, which the ◇P
    back-off rule then recovers from. Immediate; schedule via {!at} for a
    timed perturbation.
    @raise Invalid_argument if [s <= 0]. *)

val run : ?until:Des.Sim_time.t -> ?max_steps:int -> 'w t -> unit
(** Runs the simulation; see {!Des.Scheduler.run}. With no [until], runs to
    quiescence (empty event queue) — which every halting protocol reaches. *)

val now : 'w t -> Des.Sim_time.t
val alive : 'w t -> Net.Topology.pid -> bool

val crashed : 'w t -> Net.Topology.pid list
(** The processes crashed so far, in crash order. Unlike the trace's
    [Crash] entries, this is kept with trace recording off. *)

val lc : 'w t -> Net.Topology.pid -> Lclock.t
val trace : 'w t -> Trace.t
val topology : 'w t -> Net.Topology.t
type 'w envelope = { data : 'w; lc : Lclock.t; env : int }
(** What actually travels on the network: the wire payload, the sender's
    modified Lamport clock at send time (the carried value, LC+1 across
    groups, is derived per destination at delivery), and a unique envelope
    id (used by the causal trace analysis to match sends to receives). *)

val network : 'w t -> 'w envelope Net.Network.t
(** The underlying network; exposed for counters and adversarial controls
    ({!Net.Network.hold}, {!Net.Network.partition}). *)

val scheduler : 'w t -> Des.Scheduler.t
