(** Application messages.

    The unit all protocols of this library agree on: a payload addressed to
    a set of groups ([m.dest] in the paper). Broadcast is the special case
    [dest = all groups]. *)

type t = {
  id : Runtime.Msg_id.t;  (** Globally unique; breaks timestamp ties. *)
  dest : Net.Topology.gid list;  (** Destination groups, sorted, deduped. *)
  payload : string;
}

val make :
  id:Runtime.Msg_id.t -> dest:Net.Topology.gid list -> string -> t
(** Normalises [dest] (sort, dedupe). @raise Invalid_argument on empty
    destination set. *)

val dest_pids : Net.Topology.t -> t -> Net.Topology.pid list
(** All processes addressed by the message, i.e. the members of its
    destination groups. *)

val is_single_group : t -> bool
val addressed_to_group : t -> Net.Topology.gid -> bool
val addressed_to_pid : Net.Topology.t -> t -> Net.Topology.pid -> bool
val compare_id : t -> t -> int
val equal_id : t -> t -> bool
val pp : Format.formatter -> t -> unit

val compare_ts_id : (int * t) -> (int * t) -> int
(** The paper's delivery order: [(ts, id)] pairs compared
    lexicographically — [(m1.ts, m1.id) < (m2.ts, m2.id)] iff
    [m1.ts < m2.ts], or the timestamps are equal and [m1.id < m2.id]. *)
