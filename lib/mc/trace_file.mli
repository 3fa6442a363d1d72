(** Replayable counterexample traces.

    A trace file captures everything needed to reproduce one explored
    schedule bit-identically: the protocol (by its {!Amcast.Catalogue}
    name), topology sizes, seed, zero-jitter latency pair, config preset,
    spurious-timer budget, workload, faults, optional seeded mutation and
    the choice sequence. The format is line-based and versioned
    ([amcast-mc-trace/v1]) so counterexamples can be checked into the
    corpus, attached to CI failures and replayed by [amcast_mc --replay].

    {v
    amcast-mc-trace/v1
    protocol a1
    sizes 2,2
    seed 0
    latency 1000 50000
    config default
    spurious 0
    cast 1000 0 0,1 m
    fault 0 3
    mutation drop-deliver 1 0
    choices 2,0,1
    note stage-skip path counterexample
    v} *)

type t = {
  protocol : string;  (** {!Amcast.Catalogue} name, e.g. ["a1"]. *)
  sizes : int list;  (** Group sizes ({!Net.Topology.make}). *)
  seed : int;
  intra_us : int;  (** Intra-group latency, microseconds, no jitter. *)
  inter_us : int;  (** Inter-group latency, microseconds, no jitter. *)
  config : string;
      (** Config preset: ["default"], ["fritzke"] or ["generic-key"]
          ({!Amcast.Protocol.Config.default} with the
          {!Amcast.Conflict.payload_key} conflict relation). *)
  overlay : Net.Overlay.kind option;
      (** Overlay geometry ([overlay hub] line; absent = clique model,
          byte-identical to older traces). On replay the latency matrix
          becomes the overlay's routed-path delays
          ({!Net.Overlay.to_latency}, built over [sizes]'s group count at
          [intra_us]) and the protocol config carries the overlay, so
          FlexCast traces reproduce their routing bit-identically. *)
  spurious_timers : int;  (** {!Drive} budget. *)
  reorder_bound : int;
      (** {!Drive}'s delay bound; [max_int] (the default) means unlimited
          and is omitted from the file. *)
  casts : (int * int * int list * string) list;
      (** (at_us, origin pid, destination gids, payload), in cast order. *)
  faults : (int * int) list;  (** (at_us, pid) clean crash-stops. *)
  mutation : Mutant.spec option;
  choices : int list;  (** The schedule; zero-padded on replay. *)
  note : string;  (** Free-form provenance line. *)
}

val make :
  ?seed:int ->
  ?intra_us:int ->
  ?inter_us:int ->
  ?config:string ->
  ?overlay:Net.Overlay.kind ->
  ?spurious_timers:int ->
  ?reorder_bound:int ->
  ?casts:(int * int * int list * string) list ->
  ?faults:(int * int) list ->
  ?mutation:Mutant.spec ->
  ?choices:int list ->
  ?note:string ->
  protocol:string ->
  sizes:int list ->
  unit ->
  t
(** Defaults: seed 0, 1ms intra / 50ms inter, "default" config, budget 0,
    no casts, no faults, no mutation, empty (= natural) schedule. *)

val to_string : t -> string
val of_string : string -> (t, string) result
(** Round-trips {!to_string}; [Error] names the offending line. *)

val save : string -> t -> unit
val load : string -> (t, string) result

type cell = {
  name : string;  (** The protocol's name, mutation suffix included. *)
  explore : Explorer.opts -> Explorer.outcome;
      (** {!Explorer.Make.explore}; an unset [check] is the owed one. *)
  minimize : int list -> int list * string list;
      (** {!Explorer.Make.minimize} with the owed check. *)
  replay : ?max_steps:int -> int list -> Harness.Run_result.t * string list;
      (** {!Explorer.Make.replay}, then the owed check on the result. *)
}
(** One model-checker cell: the explorer closed over the setup a trace
    describes. All three check what the catalogue entry owes under the
    config ({!Harness.Checker.owed}), even when a mutation renames the
    protocol out of the catalogue, so a saved counterexample replays. *)

val cell : t -> (cell, string) result
(** The one path from a trace to an exploration: resolves the protocol in
    {!Amcast.Catalogue} (wrapped in the mutation, if any), the config
    preset, the overlay or uniform latency, the workload and the faults
    into an explorer setup. The trace's [choices] are not used. [Error]
    names an unknown protocol or config preset. *)

val replay : ?max_steps:int -> t -> (Harness.Run_result.t * string list, string) result
(** [cell]'s [replay] of the trace's own choices. [Ok (run, violations)]
    — an empty violation list means the replayed schedule satisfies the
    checked properties. *)
