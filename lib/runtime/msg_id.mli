(** Globally unique application-message identifiers.

    A message id is the pair (origin process, per-origin sequence number).
    Ids are totally ordered lexicographically; the protocols use this order
    to break timestamp ties deterministically, exactly as the paper's
    [(m.ts, m.id)] comparison requires. *)

type t = { origin : Net.Topology.pid; seq : int }

val make : origin:Net.Topology.pid -> seq:int -> t

val compare : t -> t -> int
(** Lexicographic order on (origin, seq). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
