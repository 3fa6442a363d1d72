(** Ordered-pending index: the shared fast path of the timestamp-based
    delivery tests.

    Every protocol in this library that delivers in [(timestamp, id)]
    order keeps a pending table and repeatedly asks "which pending message
    is minimal, and is it ready?" — a fold over the whole table per event
    in the naive implementations, which made a-delivery quadratic in the
    number of in-flight messages. This index keeps the live pending set in
    a binary min-heap keyed by [(ts, id)] so the minimum is O(log n) and a
    full ordered snapshot is O(n log n) {e in the live count}, not in the
    all-time message count.

    Users: A1's stage kernel, the Skeen stamp kernel, detmerge and ring
    deliver from its root; A2 keeps its undelivered backlog in it,
    ordered by id.

    Key updates (A1's stage transitions move a message's timestamp, Skeen
    finalisation replaces the own-stamp key by the final one, ring raises
    a message's lower bound and then sets its final stamp) reuse the
    {!Des.Event_queue} cancellation trick: a flag byte per issued handle
    marks an entry dead in O(1), dead entries are skipped lazily at the
    top of the heap, and the heap is compacted whenever dead entries
    outnumber live ones, so no operation ever degrades past the live
    size. *)

type 'a t

type handle = int
(** Dense (0, 1, 2, ...) per-index entry handles, like
    {!Des.Event_queue} event handles. A handle is live from {!add} until
    it is {!remove}d, {!reposition}ed away or popped. *)

val create : unit -> 'a t

val add : 'a t -> ts:int -> id:Runtime.Msg_id.t -> 'a -> handle
(** Insert a payload under key [(ts, id)]. O(log n). *)

val remove : 'a t -> handle -> unit
(** Cancel an entry. O(1) amortised; unknown/dead handles are a no-op. *)

val reposition : 'a t -> handle -> ts:int -> id:Runtime.Msg_id.t -> 'a -> handle
(** [reposition t h ~ts ~id v] is [remove t h] followed by
    [add t ~ts ~id v]: the decrease/increase-key of this structure. *)

val min_elt : 'a t -> (int * Runtime.Msg_id.t * 'a) option
(** Smallest live [(ts, id)] key with its payload. Amortised O(log n):
    dead entries reaching the top are discarded on the way. *)

val pop_min : 'a t -> (int * Runtime.Msg_id.t * 'a) option
(** Remove and return what {!min_elt} returns. *)

val size : 'a t -> int
(** Live entries. O(1). *)

val is_empty : 'a t -> bool

val to_sorted_list : 'a t -> (int * Runtime.Msg_id.t * 'a) list
(** All live entries in ascending [(ts, id)] order. O(n log n) in the live
    count (A2's proposal snapshot: the pending set, not the all-time
    R-Delivered set). *)
