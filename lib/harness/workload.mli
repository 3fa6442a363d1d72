(** Workloads: timed sequences of A-XCasts.

    A workload is what an experiment injects into a deployment: who casts,
    when, and to which groups. Message ids are assigned by the runner
    (per-origin sequence numbers), so workloads stay declarative. *)

type cast = {
  at : Des.Sim_time.t;
  origin : Net.Topology.pid;
  dest : Net.Topology.gid list;
  payload : string;
}

type t = cast list
(** Sorted or not — the runner schedules each cast at its own instant. *)

val single :
  ?payload:string ->
  at:Des.Sim_time.t ->
  origin:Net.Topology.pid ->
  dest:Net.Topology.gid list ->
  unit ->
  t
(** One cast. *)

val broadcast_single :
  ?payload:string ->
  at:Des.Sim_time.t ->
  origin:Net.Topology.pid ->
  Net.Topology.t ->
  t
(** One cast addressed to every group. *)

(** Destination-set shapes for generated workloads. *)
type dest_kind =
  | To_all_groups  (** Broadcast. *)
  | Random_groups of int
      (** A uniformly random non-empty subset of at most [k] groups. *)
  | Fixed_groups of Net.Topology.gid list
      (** Every cast goes to exactly these groups. {!generate} raises
          [Invalid_argument] if the list is empty or names a group outside
          the topology — destination sets must stay inside the deployment
          whatever overlay it runs on. *)
  | Zipfian_groups of { kmax : int; theta : float }
      (** Placement skew: a non-empty subset of at most [kmax] groups,
          drawn (distinct) with Zipf([theta]) popularity over group rank —
          low-numbered groups are hot. [theta = 0] degenerates to uniform;
          [theta ~ 1] is the classic hot-partition shape. *)

type conflict_spec = { rate : float; keys : int; theta : float }
(** The conflict knob for generic-multicast workloads: each cast is a
    keyed (conflicting) command with probability [rate], in which case its
    key is drawn Zipf([theta]) over [keys] ranked keys (hot keys
    concentrate conflicts); otherwise it is a commuting command. Keyed
    casts get payloads of the shape ["k=<key>;m<i>"] — exactly what
    {!Amcast.Conflict.payload_key} parses — so the generated workload and
    the deployment's conflict relation agree by construction. [rate = 1]
    with [keys = 1] makes every pair conflict: the total-order limit. *)

val conflict_spec : ?keys:int -> ?theta:float -> float -> conflict_spec
(** [conflict_spec rate] with [rate] clamped to [0, 1]; defaults
    [keys = 16], [theta = 0.8]. *)

val generate :
  rng:Des.Rng.t ->
  topology:Net.Topology.t ->
  n:int ->
  dest:dest_kind ->
  arrival:
    [ `Every of Des.Sim_time.t
    | `Poisson of Des.Sim_time.t
    | `Bursty of Des.Sim_time.t * int ] ->
  ?start:Des.Sim_time.t ->
  ?origins:Net.Topology.pid list ->
  ?origin_zipf:float ->
  ?conflict:conflict_spec ->
  unit ->
  t
(** [n] casts from random origins (drawn from [origins], default: all
    processes), starting at [start] (default 1ms). [`Every gap] spaces
    casts evenly; [`Poisson mean] draws exponentially distributed gaps;
    [`Bursty (mean_gap, burst_max)] is the open-loop saturation shape —
    bursts of 1..[burst_max] simultaneous casts separated by exponential
    gaps of the given mean. [origin_zipf] skews origin choice with
    Zipf(theta) popularity over the origins list's order (hot producers);
    omitted = uniform. [conflict] turns payloads into the keyed/commuting
    mix described at {!conflict_spec}; omitted = the plain ["m<i>"]
    payloads (no rng draws, bit-identical to older workloads). *)
