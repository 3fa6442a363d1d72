(** Priority queue of timed events.

    Events pop in [(time, sequence)] order, where the sequence number is
    the insertion order. The secondary key makes extraction deterministic:
    two events scheduled for the same instant pop in insertion order, so a
    simulation never depends on how the queue is laid out inside.

    The queue is a calendar queue with a far tier. Time is cut into
    power-of-two-wide buckets; events within a window of buckets ahead of
    a cursor wait in per-bucket lists sorted by that key, and later ones
    in a binary heap. Popping, cancelling or taking an event costs O(1)
    in the window (a pop also passes the empty buckets before it) and
    O(log n) beyond it; adding one costs the same plus a walk past the
    later entries of its bucket. The queue sets the bucket width and count
    itself, from the mean time between pops and from how many adds land
    beyond the window. Entries sit in a slab of
    parallel arrays (time, sequence, tag, argument, payload, links), so
    adding or popping an event allocates nothing. The handle packs the
    sequence number above the entry's slab slot, so it orders like the
    sequence number and names the slot directly. Cancelling unlinks the
    entry and drops its payload at once. The integer argument lets a
    caller share one payload (say, one handler closure) between many
    events and tell them apart by the argument alone. *)

type 'a t
(** A queue of events carrying payloads of type ['a]. *)

val create : dummy:'a -> 'a t
(** An empty queue; it allocates nothing until the first {!add}. [dummy]
    fills the slots no entry occupies, so the queue never keeps a popped
    or cancelled payload reachable. *)

val add : 'a t -> time:Sim_time.t -> 'a -> int
(** [add q ~time payload] schedules [payload] at [time] and returns a
    handle that identifies this entry (usable with {!cancel} and {!take}).
    Handles are non-negative, unique for the queue's lifetime and strictly
    increasing in insertion order, but not dense.
    @raise Failure if [2^24] entries are already pending. *)

val add_tagged : 'a t -> time:Sim_time.t -> tag:int -> arg:int -> 'a -> int
(** [add] carrying an integer metadata tag, reported back by {!live}, and
    an integer argument, reported back by {!top_arg} and {!take}. Neither
    means anything to the queue itself; the scheduler uses tags to
    classify events for controlled (model-checking) extraction, and
    arguments to pass a slot index to a shared handler. [add] is
    [add_tagged ~tag:0 ~arg:0]. *)

val cancel : 'a t -> int -> unit
(** [cancel q handle] removes the entry and releases its payload at once.
    Cancelling a negative, unknown, already-cancelled or already-popped
    handle is a no-op, even after a later entry has reused the handle's
    slot. *)

(** {2 Hot-path extraction}

    [ready], then [top_time]/[top_arg], then [pop_top]: one search for the
    earliest entry per event, with no option or tuple allocated. *)

val ready : 'a t -> bool
(** Finds the earliest live entry, the top; [true] iff there is one. *)

val top_time : 'a t -> Sim_time.t
(** The top's time. Only meaningful right after {!ready} returned [true]. *)

val top_arg : 'a t -> int
(** The top's argument. Only meaningful right after {!ready} returned
    [true]. *)

val pop_top : 'a t -> 'a
(** Removes the top and returns its payload. Only valid right after
    {!ready} returned [true]. *)

(** {2 Convenience extraction} *)

val pop : 'a t -> (Sim_time.t * 'a) option
(** Removes and returns the earliest non-cancelled event, or [None] if the
    queue has no live entries. *)

val peek_time : 'a t -> Sim_time.t option
(** The timestamp of the earliest live event, without removing it. *)

val size : 'a t -> int
(** Number of live (non-cancelled) entries. *)

(** {2 Controlled extraction} *)

val live : 'a t -> (int * Sim_time.t * int) list
(** All live entries as [(handle, time, tag)], sorted by [(time, insertion
    order)] — the order {!pop} would drain them in. This is the enabled set
    a controlled scheduler enumerates; it walks the whole slab, so it is for
    exploration loops, not hot paths. *)

val take : 'a t -> int -> (Sim_time.t * int * 'a) option
(** [take q handle] removes and returns the live entry with that handle as
    [(time, arg, payload)], regardless of its position in the time order —
    the controlled-scheduling primitive. [None] if the handle is unknown,
    cancelled or already popped. *)
