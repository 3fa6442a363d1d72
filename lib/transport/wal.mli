(** Write-ahead command log — the durability layer under a replica.

    A flat file of length-prefixed records (4-byte big-endian length +
    encoded command), appended at delivery before the command is applied
    and flushed per record. {!recover} replays the durable prefix on
    restart; a torn tail (killed mid-append) is detected and dropped —
    that command was never acknowledged as applied. The failure model is
    crash-stop of the process (the simulator's); power-loss-grade fsync is
    out of scope. *)

type t

val create : string -> t
(** Open (or create) the log at a path for appending. *)

val append : t -> string -> unit
(** Append one record and flush.
    @raise Invalid_argument on a closed log. *)

val close : t -> unit

val replay_file : string -> string list
(** The durable records of a log file, oldest first, torn tail dropped.
    [[]] if the file does not exist. Read-only (no handle needed). *)

val recover : string -> string list * t
(** Replay, atomically rewrite the file without any torn tail, and reopen
    for appending — the restart path. Returns the durable records, oldest
    first, and the reopened log. *)
