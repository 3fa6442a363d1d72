(** Run traces.

    Every observable event of a run — sends, receives, casts (A-XCast),
    deliveries (A-Deliver), crashes — is appended to the engine's trace with
    its virtual time and the modified Lamport clock value of the process at
    that event. The harness computes latency degrees, message counts,
    genuineness and ordering properties purely from this log, so protocol
    code cannot accidentally "self-report" better numbers than it achieves. *)

type entry =
  | Send of {
      time : Des.Sim_time.t;
      src : Net.Topology.pid;
      dst : Net.Topology.pid;
      inter_group : bool;
      lc : Lclock.t; (* clock value carried by the message *)
      tag : string; (* protocol-chosen label of the wire message kind *)
      env : int;
          (* envelope id matching the Receive entry; a broadcast fan-out
             shares one envelope, so (env, dst) is the unique key *)
    }
  | Receive of {
      time : Des.Sim_time.t;
      src : Net.Topology.pid;
      dst : Net.Topology.pid;
      lc : Lclock.t; (* receiver's clock after the receive *)
      env : int; (* envelope id of the matching Send entry *)
    }
  | Cast of {
      time : Des.Sim_time.t;
      pid : Net.Topology.pid;
      id : Msg_id.t;
      lc : Lclock.t;
    }
  | Deliver of {
      time : Des.Sim_time.t;
      pid : Net.Topology.pid;
      id : Msg_id.t;
      lc : Lclock.t;
    }
  | Crash of { time : Des.Sim_time.t; pid : Net.Topology.pid }

type t

val create : ?enabled:bool -> unit -> t
(** A fresh trace. When [enabled] is [false] (default [true]), {!record}
    is a no-op — used by throughput benchmarks to avoid unbounded memory. *)

val record : t -> entry -> unit

val enabled : t -> bool
(** Whether {!record} keeps entries. Hot paths test it before building an
    entry, so a disabled trace costs no allocation. *)

val entries : t -> entry list
(** All recorded entries, in chronological (append) order. *)

val entries_rev : t -> entry list
(** All recorded entries, newest first, without copying — with {!length}
    this lets incremental consumers (the model checker's fingerprint
    shadow) read just the entries appended since their last look. *)

val length : t -> int
val pp : Format.formatter -> t -> unit
