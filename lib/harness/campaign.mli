(** Randomised soak campaigns.

    Runs many independently-seeded scenarios — random topology, workload,
    latency model, crash schedule — through one protocol, checks every run
    with {!Checker}, and aggregates. This is the library's "chaos testing"
    entry point: the test suite runs small campaigns, and
    [bin/amcast_soak] runs large ones from the command line.

    There is one driver, {!run_sharded}. Scenarios are independent (each
    owns its seed), so it fans a campaign out across domains, and the
    summary is bit-identical for any domain count; at [~domains:1] it
    runs every scenario in order on the calling domain. A caller that
    wants one outcome per scenario maps {!run_one} over {!scenarios}. *)

type scenario = {
  seed : int;
  groups : int;
  per_group : int;
  n_msgs : int;
  broadcast_only : bool;  (** Force [dest = all groups]. *)
  with_crashes : bool;
      (** Crash up to a minority of each group at random instants, with
          random in-flight-loss patterns. *)
  jitter : bool;  (** WAN jitter vs crisp deterministic latencies. *)
  nemesis : bool;
      (** Replay a seeded {!Nemesis} plan against the run: partition/heal
          windows, latency spikes, FD storms, and — when [with_crashes] —
          the crash schedule (which then {e replaces} the [faults_for]
          schedule, keeping the crashed set a minority of each group).
          Liveness checks are gated on the plan's final heal
          ({!Checker.check_all}'s [liveness_from]); safety checks stay
          unconditional. *)
}

type outcome = {
  scenario : scenario;
  violations : string list;
  delivered : int;
  max_degree : int option;
  drained : bool;
  steps : int;  (** Simulation events executed by this run. *)
  retained : (string * int) list;
      (** End-of-run {!Amcast.Protocol.S.stats} counters, merged over all
          processes and sorted by label: counts sum, [*_max] labels
          (high-water marks, e.g. the throughput lane's
          [pipeline_depth_max]) take the maximum. *)
}

type summary = {
  runs : int;
  clean : int;
  total_violations : int;
  failures : outcome list;  (** Outcomes with at least one violation. *)
  delivered_total : int;
  total_steps : int;  (** Simulation events executed across all runs. *)
  retained_total : (string * int) list;
      (** Label-wise merge of every outcome's [retained] counters (sums,
          maxima for [*_max] labels) — how much protocol state survived
          to the end of the runs (a growth check for the fast-lane GC),
          plus the throughput-lane batching/pipelining counters. *)
}

val scenario_at :
  ?broadcast_only:bool ->
  ?with_crashes:bool ->
  ?with_nemesis:bool ->
  seed:int ->
  int ->
  scenario
(** [scenario_at ~seed i] is scenario [i] of campaign [seed] — a pure
    function of [(seed, i)] via {!Des.Rng.substream}, so a sharded worker
    can derive its scenarios locally and still agree with every other
    driver on what campaign [seed] contains. *)

val scenarios :
  ?broadcast_only:bool ->
  ?with_crashes:bool ->
  ?with_nemesis:bool ->
  seed:int ->
  runs:int ->
  unit ->
  scenario list
(** The deterministic scenario list campaign [seed] expands to — the
    scenarios {!run_sharded} executes: [List.init runs (scenario_at ~seed)]. *)

val max_steps : int
(** The step budget of one scenario run (1M events). Campaign scenarios
    drain in a few thousand; a run that reaches the budget is a runaway,
    and {!run_one} reports it as the scenario's violation. *)

val run_one :
  (module Amcast.Protocol.S) ->
  ?config:Amcast.Protocol.Config.t ->
  ?conflict:Workload.conflict_spec ->
  ?overlay_kind:Net.Overlay.kind ->
  ?expect_genuine:bool ->
  ?check_quiescence:bool ->
  scenario ->
  outcome
(** [conflict] turns the generated workload's payloads into the
    keyed/commuting mix of {!Workload.conflict_spec} (omitted = the plain
    payloads, bit-identical to older campaigns). Independently, when
    [config] carries a non-[Total] conflict relation the ordering check
    becomes {!Checker.conflict_order} under that relation — what a
    generic-multicast deployment owes — instead of the total-order prefix
    check.

    [overlay_kind] runs the scenario over that {!Net.Overlay} geometry
    instead of the clique: the group count is bumped to the geometry's
    minimum if needed (a ring needs three groups), the latency model is
    derived from the overlay's routed path delays
    ({!Net.Overlay.to_latency}), the protocol config carries the overlay
    (FlexCast routes along it; clique-model protocols ignore it), nemesis
    partitions follow the overlay's cut edges, and the genuineness check
    becomes overlay-aware. Omitted, everything is bit-identical to older
    campaigns.

    A run still going after {!max_steps} events is not checked: its
    outcome carries one ["not drained in …"] violation (and
    [drained = false]), so {!pp_summary} names its scenario like any
    other failure instead of the campaign aborting.

    The scenario records its run trace only when genuineness, the one
    check that reads it, is checked ([expect_genuine] on a scenario
    without crashes). Every other verdict and the outcome's [delivered],
    [max_degree] and [steps] come from the engine's cast and delivery
    logs, which are kept either way, so they do not depend on whether the
    trace was recorded. *)

val run_sharded :
  (module Amcast.Protocol.S) ->
  ?config:Amcast.Protocol.Config.t ->
  ?conflict:Workload.conflict_spec ->
  ?overlay_kind:Net.Overlay.kind ->
  ?expect_genuine:bool ->
  ?check_quiescence:bool ->
  ?broadcast_only:bool ->
  ?with_crashes:bool ->
  ?with_nemesis:bool ->
  ?domains:int ->
  seed:int ->
  runs:int ->
  unit ->
  summary
(** [run_sharded proto ... ~domains ~seed ~runs ()] runs campaign [seed]'s
    [runs] scenarios through {!run_one} on [domains] domains (default
    {!Pool.recommended_domains}; [~domains:1] is the sequential driver)
    and aggregates them. Nothing is materialised up front: the domain
    that claims run [i] derives scenario [i] locally from its
    {!Des.Rng.substream} ({!scenario_at}) and runs it, so the campaign
    scales to run counts where serially pre-generating the scenario list
    would itself be a bottleneck. The summary is bit-identical at every
    domain count. *)

val pp_summary : Format.formatter -> summary -> unit
