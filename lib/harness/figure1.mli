(** Figure 1 of the paper as one workload matrix.

    Figure 1 compares latency degree and inter-group messages: (a) A1
    against the multicast algorithms [4], [10], [5] and [1], (b) A2
    against the broadcast algorithms [12], [13] and [1]. This module is the
    single owner of that workload: the crisp latency model, every cell's
    placement, origin rule and config transform, and the runners that
    measure a cell. [bench/main.exe] prints the tables from it,
    [bench/msgpath_bench.exe] records each cell's message counts and
    modeled bytes, and the tier-1 suite pins every cell's counts. {!Complexity} holds the closed forms. *)

val crisp : Net.Latency.t
(** Uniform 1 ms intra-group and 50 ms inter-group delays, no jitter: a
    run's message pattern, and so its counts, depends on nothing but the
    protocol and the seed. *)

type probe = Run_result.t * Runtime.Msg_id.t
(** A finished run and the id of the message it measures. *)

(** {1 Runners}

    Each runner deploys on a [groups]×[d] symmetric topology and casts the
    probe at 300 ms. [until] bounds runs that never quiesce. *)

val multicast :
  ?latency:Net.Latency.t ->
  ?until:Des.Sim_time.t ->
  (module Amcast.Protocol.S) ->
  groups:int ->
  d:int ->
  k:int ->
  config:Amcast.Protocol.Config.t ->
  seed:int ->
  probe
(** One multicast to groups [0..k-1] (latency default {!crisp}). The caster
    sits in the {e last} destination group: the placement under which every
    algorithm meets its Figure 1 row (a caster in the first group would
    give the ring algorithm a head start, for instance). *)

val broadcast :
  ?until:Des.Sim_time.t ->
  (module Amcast.Protocol.S) ->
  groups:int ->
  d:int ->
  origin:Net.Topology.pid ->
  config:Amcast.Protocol.Config.t ->
  seed:int ->
  probe
(** One broadcast to every group, cast by [origin]. *)

val a2_warm :
  groups:int -> d:int -> config:Amcast.Protocol.Config.t -> seed:int -> probe
(** A2 with a warm round. Phase 1 finds, deterministically, when a warm-up
    broadcast cast by p0 at 1 ms is delivered at p0; phase 2 re-runs the
    same seed and casts the probe from p0 2 ms later, inside the next
    round's proposal grace. *)

(** {1 The matrix} *)

type measure =
  | Probe
      (** The probe's latency degree and the run's inter-group messages. *)
  | Saturated_stream
      (** [1]'s own model, where publishers cast forever, so the stream
          entries that gate a message's merge are already in flight when
          it is cast. Every process casts to the cell's destinations every
          20 ms (5 each, default config, seed 0, 1.5 s horizon); the
          minimum degree over the stream, which is the paper's definition
          of an algorithm's degree, and the marginal [dm.pub] copies per
          message. The cell's [run] stays a single probe under a 2 s
          horizon. *)

type cell = {
  figure : string;  (** ["figure-1a"] or ["figure-1b"] *)
  algorithm : string;  (** e.g. ["ring"], ["a2-warm"] *)
  label : string;  (** the paper's row name, e.g. ["[4] ring"] *)
  groups : int;
  d : int;  (** processes per group *)
  k : int;  (** destination groups; [groups] in 1(b) *)
  paper_degree : int;
  paper_msgs : string;  (** the paper's order, e.g. ["O(kd^2)"] *)
  formula : Complexity.cost option;  (** the closed form; 1(a) only *)
  measure : measure;  (** how {!counts} measures the cell *)
  run : config:Amcast.Protocol.Config.t -> seed:int -> probe;
      (** The cell's probe, under its own origin rule and config transform
          ([1] runs with a 200 ms null period). *)
}

val figure_1a : cell list
(** 4 groups, (k, d) in (2,1) (2,2) (2,3) (3,2) (4,2), each with ring,
    scalable, fritzke, a1 and detmerge: 25 cells, placement-major. *)

val figure_1b : cell list
(** (groups, d) in (2,2) (3,2) (4,2) (3,3), each with optimistic,
    sequencer, a2-cold, a2-warm and detmerge: 20 cells, placement-major.
    [12] casts from outside its sequencer's group (the general case), [13]
    from inside it (its best case), A2 and [1] from p0. *)

type counts = { degree : int option; inter_msgs : int }

val counts : cell -> counts
(** The cell's Figure 1 measurement under the default config and seed 0,
    as [cell.measure] says. *)
