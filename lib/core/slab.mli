(** Flat, reusable protocol-state containers for the delivery hot path.

    Replaces the per-pending [Hashtbl]s in the protocol cores with
    preallocated arrays + presence flags, pooled so the steady state
    allocates nothing per cast. *)

module Row : sig
  type 'a t
  (** A fixed-width slot array with a one-byte presence mask per slot.
      Typical use: one slot per group (proposals) or per process
      (timestamps), acquired when a message becomes pending and released
      back to the pool at delivery. *)

  type 'a pool

  val pool : width:int -> default:'a -> 'a pool
  (** A pool of rows of [width] slots. [default] fills vacant slots (it is
      never observable through {!get}/{!find} while absent, but must be a
      value safe to retain, e.g. [0] or a static sentinel).
      @raise Invalid_argument if [width <= 0]. *)

  val width : 'a pool -> int

  val acquire : 'a pool -> 'a t
  (** A cleared row: reuses a released one when available. *)

  val release : 'a pool -> 'a t -> unit
  (** Scrubs only the slots that were set (O(set slots), not O(width)) and
      returns the row to the free list. The caller must drop its reference. *)

  val set : 'a t -> int -> 'a -> unit
  val mem : 'a t -> int -> bool
  val get : 'a t -> default:'a -> int -> 'a
  val find : 'a t -> int -> 'a option

  val count : 'a t -> int
  (** Number of distinct slots set since acquire. *)
end
