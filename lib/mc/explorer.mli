(** DPOR-style exhaustive schedule exploration over the DES.

    The explorer runs a depth-first search over the interleavings the
    {!Drive} choice policy admits for one deployment: at each state it
    branches on every eligible choice, reaching terminal (quiescent)
    states that it validates with a checker. Two reductions:

    - {b Sleep sets} (Godefroid): after exploring a subtree rooted at
      choice [a], siblings explored later put [a] to sleep as long as only
      events {e independent} of [a] execute — schedules that merely
      commute [a] past independent events re-derive a Mazurkiewicz trace
      already covered by [a]'s subtree. Two choices are treated as
      independent iff both are process-local event kinds (delivery, timer,
      cast) at {e different} processes; crashes and generic events are
      conservatively dependent with everything (a crash can cancel other
      processes' in-flight messages). This is sound for the delivery
      interleavings of interest, with one documented approximation: timer
      and cast handlers that read the simulated clock may observe
      different readings in commuted schedules (the DES clock advances to
      each executed event's nominal time). The [mc_bench] differential
      asserts naive-vs-POR terminal-outcome equality on the benched
      configurations as an empirical check.
    - {b Fingerprint pruning} (separate flag): subtrees rooted at an
      already-seen {!Fingerprint.state} are skipped. On top of sleep sets
      this is the classic state-caching + sleep-set interaction, which can
      prune schedules a fresh visit would explore (and hashes can in
      principle collide), so it is off by default and meant for
      state-space measurement and smoke-level sweeps, not proofs.

    Counterexamples are reported as choice-index sequences that replay
    bit-identically through {!Make.replay} ({!Harness.Runner} underneath),
    and can be {!Make.minimize}d to their non-default core. *)

val digest : Harness.Run_result.t -> int
(** Order-sensitive hash of a run's observable outcome: per-process
    delivery sequences (by message id) plus the crash set. Two terminal
    states with equal digests delivered the same messages in the same
    per-process orders. *)

module Make (P : Amcast.Protocol.S) : sig
  type setup = {
    topology : Net.Topology.t;
    workload : Harness.Workload.t;
    seed : int;
    latency : Net.Latency.t;
    config : Amcast.Protocol.Config.t;
    faults : Harness.Runner.fault list;
    spurious_timers : int;
    reorder_bound : int;  (** {!Drive}'s delay-bounding budget. *)
  }

  val make_setup :
    ?seed:int ->
    ?latency:Net.Latency.t ->
    ?config:Amcast.Protocol.Config.t ->
    ?faults:Harness.Runner.fault list ->
    ?spurious_timers:int ->
    ?reorder_bound:int ->
    topology:Net.Topology.t ->
    Harness.Workload.t ->
    setup
  (** Defaults: seed 0, {!crisp_latency}, default config, no faults,
      spurious-timer budget 0, unlimited reorder bound. Schedule faults [~at:Sim_time.zero]: a
      crash choice executed late would otherwise drag the virtual clock to
      its nominal time. *)

  val replay : ?max_steps:int -> setup -> int list -> Harness.Run_result.t
  (** Deploy, execute the choice sequence (clamped and zero-padded as in
      {!Drive.run}) to quiescence, and snapshot the run. Deterministic:
      equal inputs give bit-identical results. *)

  type opts = {
    por : bool;  (** Sleep-set partial-order reduction. *)
    fingerprints : bool;  (** State-hash pruning (see module doc). *)
    max_interleavings : int;
    max_path_steps : int;  (** Depth bound per schedule. *)
    max_total_steps : int;  (** Global executed-event budget. *)
    check : (Harness.Run_result.t -> string list) option;
        (** Terminal-state oracle; non-empty = violation. [None]: what the
            protocol owes under the setup's config,
            {!Harness.Checker.owed} of its {!Amcast.Catalogue} entry
            ({!Harness.Checker.check_all}'s defaults for a protocol outside
            the catalogue). *)
    stop_on_violation : bool;
  }

  val default_opts : opts
  (** POR on, fingerprints off, 200k interleavings, 10k steps per path,
      50M total steps, the owed checks, stop on first violation. *)

  type violation = {
    choices : int list;  (** Schedule reaching the violating terminal. *)
    messages : string list;  (** The checker's verdict there. *)
  }

  type stats = {
    interleavings : int;  (** Terminal states reached. *)
    events : int;  (** Scheduler events executed, including replays. *)
    replays : int;  (** Deployments created (DFS backtracks by replay). *)
    peak_depth : int;
    sleep_prunes : int;
    fingerprint_prunes : int;
    exhaustive : bool;
        (** No budget was hit (and no violation cut the search short):
            every schedule the policy admits was covered. *)
  }

  type outcome = {
    stats : stats;
    outcome_digests : int list;
        (** Sorted distinct {!digest}s of all terminal states — the
            naive-vs-POR equality oracle. *)
    violation : violation option;  (** First violation found, if any. *)
  }

  val explore :
    ?opts:opts ->
    ?on_terminal:(int list -> Harness.Run_result.t -> unit) ->
    setup ->
    outcome
  (** Runs the DFS. [on_terminal] observes every terminal state with the
      schedule that reached it (used to harvest corpus traces). *)

  val minimize :
    ?check:(Harness.Run_result.t -> string list) ->
    ?max_steps:int ->
    setup ->
    int list ->
    int list * string list
  (** [minimize setup choices] greedily shrinks a violating schedule:
      left to right, each non-default choice is set back to 0 if the
      violation (per [check], default the owed checks as in {!opts})
      survives; trailing defaults are then dropped. Returns the shrunk
      schedule and its checker verdict. If [choices] does not violate
      [check] in the first place, returns it unshrunk with []. *)
end
