(** The replicated key-value state machine: SET/GET/DEL over {!Rsm.spec}.

    Commands are placed per key — a stable hash of the key names the one
    group that stores it — so the service exercises genuine (partial
    -replication) multicast: only the key's group orders and applies the
    command. GET is ordered like a write, which is what makes reads
    linearizable. *)

module SMap : Map.S with type key = string

type cmd = Set of string * string | Get of string | Del of string
type state = string SMap.t

val key_of : cmd -> string

val group_of_key : groups:int -> string -> Net.Topology.gid
(** Stable (process- and backend-independent) placement hash. *)

val encode : cmd -> string
(** Wire/WAL codec. Keys must be NUL-free (see {!parse}). *)

val spec : groups:int -> (state, cmd) Rsm.spec

val conflict : groups:int -> Amcast.Conflict.t
(** Per-key conflict relation for generic-multicast deployments: commands
    on different keys commute. *)

val query : state -> string -> string option

val reply_of : state -> cmd -> bool * string
(** The reply a replica computes when applying [cmd] to [state]:
    [(found, value)] for GET, [(true, "OK")] for SET/DEL. *)

val parse : string -> cmd option
(** Client text protocol: ["SET <key> <value>"] (value may contain
    spaces), ["GET <key>"], ["DEL <key>"]. Keys must be nonempty and
    contain no space or NUL. *)

val print : cmd -> string
(** Inverse of {!parse} (canonical, upper-case verbs). *)
