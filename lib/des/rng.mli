(** Deterministic pseudo-random number generator (SplitMix64).

    Every source of randomness in the simulator flows through an explicit
    [Rng.t] so that a run is a pure function of its seed. SplitMix64 is
    small, fast, passes BigCrush, and supports cheap splitting, which lets
    each simulated component own an independent stream derived from the
    root seed. *)

type t
(** A mutable generator state, held unboxed: advancing it allocates
    nothing. *)

val create : int -> t
(** [create seed] is a fresh generator. Two generators created with the same
    seed produce identical streams. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing [t]
    by exactly one {!int64} draw. Used to give each process / link its own stream so that adding a draw in
    one component does not perturb the others. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val substream : int -> int -> t
(** [substream seed i] is the [i]-th independent stream of the generator
    family rooted at [seed], a pure function of [(seed, i)]. Unlike
    {!split} it needs no sequential walk over streams [0..i-1], so sharded
    drivers can hand stream [i] to whichever domain processes item [i] and
    stay bit-identical to a sequential driver.
    @raise Invalid_argument if [i < 0]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from the exponential distribution with the
    given mean; used for Poisson arrival processes in workloads. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. @raise Invalid_argument on empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a list -> 'a list
(** [sample_without_replacement t n xs] is a uniformly random subset of [xs]
    of size [min n (List.length xs)], in a random order. *)
