(** The real backend of the capability record {!Runtime.Services.t}: Unix
    TCP sockets plus a per-node event-loop thread.

    Each node owns a listening socket, dials unidirectional connections to
    the peers it sends to, and runs one loop thread on which {e all} node
    state is touched: socket reads, timer callbacks, protocol handlers and
    {!post}ed thunks. Protocol code therefore keeps the single-threaded
    process model of the simulator. Frames are length-prefixed (4-byte
    big-endian), payloads go through the node's {!type:codec}, and every
    data frame carries the sender's modified Lamport clock exactly like
    the DES envelope does.

    With [?inject], sends are held in the timer heap for a delay sampled
    from a {!Net.Latency} shape before the bytes hit the socket — the WAN
    geometry of a simulated scenario reproduced on localhost.

    Several nodes of one "cluster" may live in a single OS process, each
    with its own loop thread and sockets — how the tests, the load bench
    and [amcast_kv serve] drive multi-replica deployments. Nothing in the
    wire protocol assumes colocation: peers are reached by [addrs], not by
    shared memory. *)

type 'w codec = { encode : 'w -> string; decode : string -> 'w }
(** Wire codec for the protocol's message type. [decode] must invert
    [encode]. *)

val marshal_codec : unit -> 'w codec
(** The default codec: [Marshal] on the wire variant (safe here — wire
    messages are closed data types). *)

type 'w t

type client
(** Handle on one in-flight client request (connection + framing), given
    to the {!set_client_handler} callback; reply with {!reply} — now or
    later (the KV service replies at command delivery). *)

val localhost_addrs :
  base_port:int -> Net.Topology.t -> (string * int) array
(** [127.0.0.1:base_port+pid] for every pid. *)

val create :
  ?inject:Net.Latency.t ->
  ?seed:int ->
  ?epoch:float ->
  codec:'w codec ->
  topology:Net.Topology.t ->
  self:Net.Topology.pid ->
  addrs:(string * int) array ->
  unit ->
  'w t
(** Binds the node's listening socket (reusable address, so a restarted
    node reclaims its port). [epoch] anchors {!Runtime.Services.now} so
    all nodes of a cluster share a time origin; [seed] feeds the delay
    -injection stream. The node is inert until {!start}. *)

val start : 'w t -> unit
(** Spawns the event-loop thread. *)

val stop : 'w t -> unit
(** Posts shutdown and joins the loop thread; all sockets are closed from
    the loop (a crash, from the peers' point of view: connections die,
    unacked frames are lost). Idempotent. *)

val running : 'w t -> bool

val post : 'w t -> (unit -> unit) -> unit
(** Runs a thunk on the node's loop thread — the only way for an external
    thread to touch node state (submit a cast, read protocol state...).
    Silently dropped after {!stop}. *)

val set_receiver : 'w t -> (src:Net.Topology.pid -> 'w -> unit) -> unit
(** The node's reaction to decoded protocol frames (the
    {!Runtime.Engine.node} analogue). Swap it to re-route frames — the KV
    service's restarted-learner mode replaces it with a drop handler. *)

val set_client_handler :
  'w t -> (client -> req:int -> string -> unit) -> unit
(** Called on the loop thread for every client request frame. *)

val reply : client -> req:int -> ok:bool -> string -> unit
(** Frame and write a reply on the client's connection (loop thread
    only). *)

val services : 'w t -> 'w Runtime.Services.t
(** The capability record of this node. Its closures must only be invoked
    on the loop thread (protocol handlers and timers already are; use
    {!post} from outside). *)

val announce_crash : 'w t -> Net.Topology.pid -> unit
(** Oracle crash notification (the {!Runtime.Engine.schedule_crash}
    analogue, driven by whoever injected the crash): marks the pid dead in
    this node's [alive] view and fires each {!Runtime.Services.t}
    [.on_crash_detected] subscription after its delay. *)

val announce_recovery : 'w t -> Net.Topology.pid -> unit
(** Marks a restarted pid alive again in this node's view. *)

val lc : 'w t -> Lclock.t

val bump_lc : 'w t -> (Lclock.t -> Lclock.t) -> unit
(** Advance the node's Lamport clock by a local rule (the
    {!Runtime.Engine.record_cast}/{!Runtime.Engine.record_deliver}
    analogue). Loop thread only. *)

val sent_intra : 'w t -> int
val sent_inter : 'w t -> int

val events_processed : 'w t -> int
(** Frames handled + timers fired + thunks run — the loop's analogue of
    the scheduler's executed-events counter. *)

(** Synchronous (blocking) client connection — what the closed-loop load
    driver runs: one request in flight per client, measure the reply. *)
module Client : sig
  type t

  val connect : string * int -> t
  (** TCP-connect to a replica and send the client hello. *)

  val request : t -> string -> bool * string
  (** [request c payload] writes one request frame and blocks until its
      reply: [(ok, value)].
      @raise Failure if the connection dies first. *)

  val close : t -> unit
end
