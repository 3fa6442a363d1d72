(** Values keyed by a monotonically advancing instance number.

    Consensus instances and the decisions a host has yet to consume are
    both keyed this way, and their live keys span a small window (the
    consensus pipeline plus the garbage-collection lag), so a power-of-two
    ring indexed by [key land (capacity - 1)] replaces a hashed table: a
    probe is one mask and one array read. The ring grows only on a
    live-key collision, so its capacity follows the live key span, not the
    number of keys ever stored. *)

type 'a t

val create : unit -> 'a t

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument on a negative key. *)

val take : 'a t -> int -> 'a option
(** Removes and returns the value at the key, if present. *)

val drop : 'a t -> int -> unit
val find : 'a t -> int -> 'a option

val live : 'a t -> int
(** Number of keys currently present. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** [fold f t acc] visits the live bindings in ascending key order. The
    bindings are collected before the first call to [f], so [f] may add or
    remove keys; a removed binding is still visited, an added one is not.
    Allocates: meant for rare paths (leader change, lease grants), not
    per message. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** [fold] without an accumulator. *)
