(** Controlled stepping of a deployment's scheduler.

    The model checker replaces the scheduler's time-ordered pop with an
    enumerable {e choice set}: at each step the adversary picks one of the
    currently eligible events. The policy separates two classes by their
    {!Des.Scheduler.Tag}:

    - {e anytime} events (message deliveries, crashes) model asynchrony the
      adversary controls — a pending delivery may be executed at any step,
      regardless of its nominal arrival time;
    - {e timed} events (timers, workload casts, generic actions) are
      anchored to the local clocks, which the adversary does not control:
      only the earliest pending timed event (in [(time, seq)] order) is
      eligible, so timed events execute in timestamp order among
      themselves.

    Choices are listed in canonical [(time, seq)] order, so {e choice 0 is
    exactly the event the normal scheduler would pop}: an all-zeros choice
    sequence replays the natural run, and a counterexample is fully
    described by its non-default prefix ({!run} pads with zeros).

    Breadth is bounded by a {e reorder bound} (delay-bounded scheduling):
    each execution of a non-default choice (index > 0 — the adversary
    delays every eligible event ahead of it) spends one unit of a per-path
    budget; once spent, only the default choice remains eligible. With an
    unlimited bound (the default) the admitted schedule space is every
    interleaving of pending anytime events — combinatorial in the number
    of messages per process; with bound [k] it is every schedule reachable
    with at most [k] scheduling deviations, which is what makes exhaustive
    exploration of realistic configurations tractable.

    Timeout races are bounded by a {e spurious-timer budget}: a timer
    choice taken while deliveries are still pending is "spurious" (the
    timeout fired before the message it guards). Each path may contain at
    most [spurious_timers] such firings; past the budget, timer choices are
    suppressed whenever an anytime choice exists. Timers remain eligible
    when they are all that is left, so runs always drain. The suppression
    state is a pure function of the choice prefix, keeping replay
    deterministic. *)

type choice = {
  handle : Des.Scheduler.handle;
  time : Des.Sim_time.t;  (** Nominal (scheduled) time of the event. *)
  tag : Des.Scheduler.Tag.t;
}

type t

val create :
  ?spurious_timers:int -> ?reorder_bound:int -> Des.Scheduler.t -> t
(** A driver over [sched]. [spurious_timers] (default 0) is the per-path
    budget of timer firings taken while anytime events were pending;
    [reorder_bound] (default unlimited) the per-path budget of
    non-default choices. *)

val choices : t -> choice list
(** The current choice set, in canonical [(time, seq)] order. Empty iff
    the deployment is quiescent. *)

val step : t -> int -> choice
(** [step t i] executes choice [i] of {!choices} and returns it. Indices
    out of range are clamped to the valid interval (so any [int list] is a
    runnable schedule — used by the random-schedule differential tests);
    on a clamped index the {e clamped} choice is executed.
    @raise Invalid_argument if the deployment is quiescent. *)

val run : ?max_steps:int -> t -> int list -> int list
(** [run t cs] executes the choices [cs] (clamped as in {!step}), then
    pads with choice 0 until the deployment drains; returns the full
    executed index sequence (after clamping). [max_steps] (default
    200_000) bounds runaway schedules.
    @raise Failure if the deployment is still live after [max_steps]. *)
