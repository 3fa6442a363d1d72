(** The discrete-event simulation loop.

    A scheduler owns a virtual clock and a queue of pending actions (thunks).
    Running the scheduler repeatedly pops the earliest action, advances the
    clock to its timestamp, and executes it; actions typically schedule
    further actions (message deliveries, timer expirations).

    The loop is single-threaded and deterministic: for a fixed seed and a
    fixed program, every run executes the same actions in the same order. *)

type t

type handle = int
(** Identifies a scheduled action, for cancellation and {!step_handle}.
    Handles are unique for the scheduler's lifetime and increase with
    scheduling order, so sorting by handle sorts by scheduling order; they
    are not dense (see {!Event_queue.add}). *)

(** Commutativity metadata attached to scheduled actions, for controlled
    (model-checking) scheduling. A tag names the {e kind} of an action and
    the {e actor} (process) whose state it mutates:

    - [deliver p] — a network message delivery to process [p]; the
      adversary controls message delays, so deliveries may execute at any
      point after their send ("anytime" events);
    - [crash p] — a crash injection; also adversary-placed, hence anytime;
    - [timer p] — a local timer at [p]: anchored to the process clock, so
      it keeps its timestamp order against other timed events;
    - [cast p] — a workload A-XCast injection at [p], also wall-clock
      anchored;
    - [generic] — infrastructure with no single actor (nemesis steps,
      manual {!Runtime.Engine.at} hooks); conservatively treated as
      dependent on everything by the explorer.

    Two actions commute (their execution order cannot be observed by any
    process) when both carry non-generic tags with {e different} actors:
    each mutates only its own actor's protocol state. Tags are packed
    integers, so tagging the per-send hot path allocates nothing. *)
module Tag : sig
  type t = private int

  val generic : t
  val deliver : int -> t
  val timer : int -> t
  val crash : int -> t
  val cast : int -> t
  val kind : t -> [ `Generic | `Deliver | `Timer | `Crash | `Cast ]

  val actor : t -> int
  (** The process whose state the action mutates; [-1] for {!generic}. *)

  val anytime : t -> bool
  (** Whether the adversary may execute the action at any point rather
      than in timestamp order ([`Deliver] and [`Crash]). *)

  val pp : Format.formatter -> t -> unit
end

val create : unit -> t
(** A scheduler with the clock at {!Sim_time.zero} and no pending actions. *)

val now : t -> Sim_time.t
(** Current virtual time. *)

val at_tagged : t -> Tag.t -> Sim_time.t -> (unit -> unit) -> handle
(** [at_tagged t tag time f] schedules [f], tagged [tag], to run at
    absolute [time]. Scheduling in the past is clamped to the current
    instant (the action still runs strictly after the currently-executing
    one). Plain positional arguments (no optional label) keep the
    per-event hot path free of option allocations. *)

val after_tagged : t -> Tag.t -> Sim_time.t -> (unit -> unit) -> handle
(** [after_tagged t tag d f] schedules [f] to run [d] after the current
    instant. *)

val at_arg : t -> Tag.t -> Sim_time.t -> (unit -> unit) -> int -> handle
(** [at_arg t tag time f arg] is [at_tagged t tag time f] carrying the
    integer [arg], which {!arg} returns while [f] runs. One shared [f] can
    then serve many events told apart by [arg] — the network schedules
    every delivery with the same handler closure and the delivery's slot
    index, so a delivery costs no closure. *)

val arg : t -> int
(** The [arg] of the action executing now ([0] for actions scheduled
    without one). Read it on entry: the next action overwrites it. *)

val cancel : t -> handle -> unit
(** Cancels a pending action and releases its closure at once; no-op if
    it already ran or was cancelled. *)

val pending : t -> int
(** Number of actions still scheduled. *)

val executed : t -> int
(** Total number of actions executed since creation — the event count of
    the simulation so far, used to normalise benchmark throughput. *)

val step : t -> bool
(** Executes the single earliest pending action. Returns [false] if the
    queue was empty (and the clock did not move). *)

val enabled : t -> (handle * Sim_time.t * Tag.t) list
(** The live pending actions as [(handle, time, tag)], in [(time,
    insertion)] order — the enabled set a controlled scheduler picks from.
    Element 0 is exactly what {!step} would execute next. O(pending log
    pending): exploration-loop API, not a hot path. *)

val step_handle : t -> handle -> bool
(** [step_handle t h] executes the pending action [h] {e regardless of its
    position in the time order} — the pluggable pick policy behind the
    model checker. The clock advances to [max now (time h)] (executing an
    action early never moves time backwards; executing it late models the
    adversary having delayed it). Returns [false] if [h] is not live. *)

val run : ?until:Sim_time.t -> ?max_steps:int -> t -> unit
(** [run t] executes actions until no action remains, the optional [until]
    horizon is crossed (actions scheduled later stay pending), or
    [max_steps] actions have run. The default horizon is
    {!Sim_time.infinity} and the default step budget is unlimited.
    @raise Failure if [max_steps] is exhausted — runaway protocol loops are
    a bug, not a normal termination. *)
