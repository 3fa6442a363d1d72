(** Conflict relations for generic (conflict-aware) multicast.

    Generic multicast (Bolina et al. 2024, PAPERS.md; generic broadcast,
    Pedone & Schiper) relaxes total order to a {e partial} order: only
    {e conflicting} messages need to be delivered in the same relative
    order by their common addressees. Commands that commute — reads,
    writes to different keys, increments of independent counters — can
    skip ordering cost entirely while replica consistency is preserved,
    because applying commuting commands in either order yields the same
    state.

    A relation here is symmetric and agreed by every process (it is part
    of the deployment's {!Protocol.Config}, like the state-machine spec
    itself): all processes must answer the same for any message pair,
    which the payload-derived constructors guarantee by construction.

    Two shapes, both partitions of the messages into conflict classes
    (two messages conflict iff they fall in the same class):

    - {!Total} — every pair conflicts (one class). Recovers classic total
      order; the conflict-aware protocol then behaves exactly like its
      total-order twin.
    - {!Keyed} — each message maps to an optional conflict class; two
      messages conflict iff they map to the same class, and a message
      mapping to [None] conflicts with {e nothing} (it commutes with
      every other command and may bypass ordering altogether). Covers
      per-key conflicts of a KV store. {!never} is the degenerate
      all-[None] case. *)

type t =
  | Total  (** Every pair of messages conflicts: total order. *)
  | Keyed of { name : string; key : Msg.t -> string option }
      (** Conflict classes: [key m1 = key m2 = Some k] conflicts;
          [key m = None] means [m] conflicts with nothing at all. *)

val total : t
val never : t
(** {!Keyed} with [key _ = None]: nothing conflicts — pure reliable
    multicast ordering-wise. *)

val keyed : ?name:string -> (Msg.t -> string option) -> t

val payload_key : t
(** The workload convention: payloads of the form ["k=<key>;<rest>"]
    conflict per [<key>]; any other payload is a commuting command
    (class [None]). {!Harness.Workload}'s conflict knob emits exactly
    this shape, so a generated workload and this relation agree on which
    casts conflict. *)

val payload_class : string -> string option
(** The parser behind {!payload_key}, usable on raw payloads. *)

val name : t -> string

val conflicts : t -> Msg.t -> Msg.t -> bool
(** Whether the pair must be ordered. Irreflexive by convention: a
    message never conflicts with itself (dedup is integrity's job). *)

val class_of : t -> Msg.t -> string option
(** The message's conflict class: [Some ""] for every message under
    {!Total}, [key m] under {!Keyed}. [None] = solo: the message
    conflicts with no message, and delivery may bypass ordering
    entirely. *)
