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

(** Mutable tables keyed by message id.

    The algorithm is Stdlib [Hashtbl.Make]'s over [hash id = origin *
    1_000_003 + seq], with the hash and the equality inlined. Walk-order
    contract: [iter] and [fold] visit exactly the bindings, and in exactly
    the order, that [Hashtbl.Make] over the same hash would after the same
    sequence of [create], [add], [replace], [remove] and [reset] calls:
    buckets from index 0 upward (the index is the hash masked to the
    power-of-two bucket count), each chain newest insertion first, chains
    re-linked in order when the table doubles. Protocols that re-send or
    flush by walking a table (rmcast's crash relay, whitebox's stamp
    re-send, optimistic's flush) depend on this order for their
    byte-identical goldens. A table must not be changed during a walk. *)
module Tbl : sig
  type key = t
  type 'a t

  val create : int -> 'a t
  (** [create n]: [n] is the initial bucket count, rounded up to a power of
      two of at least 16. *)

  val reset : 'a t -> unit
  (** Empties the table and shrinks it back to its initial bucket count. *)

  val length : 'a t -> int
  val add : 'a t -> key -> 'a -> unit
  (** Adds a binding that hides any previous one for the key. *)

  val replace : 'a t -> key -> 'a -> unit
  val remove : 'a t -> key -> unit
  (** Removes the most recent binding of the key, if any. *)

  val find : 'a t -> key -> 'a
  (** @raise Not_found when the key is unbound. *)

  val find_opt : 'a t -> key -> 'a option

  val find_or : 'a t -> key -> default:'a -> 'a
  (** [find_or h k ~default] is the data bound to [k], or [default] when
      [k] is unbound: {!find_opt} without the [Some] box, for lookups on
      a hot path that keep a sentinel value to compare against. *)

  val mem : 'a t -> key -> bool
  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
end
