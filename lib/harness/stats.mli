(** Small descriptive-statistics toolkit for experiment outputs. *)

val mean : float list -> float option
val stddev : float list -> float option
(** Sample standard deviation (n-1 denominator); [None] for fewer than two
    samples. *)

val median : float list -> float option

val percentile : float -> float list -> float option
(** [percentile p xs] for [p] in [\[0, 100\]], nearest-rank method.
    @raise Invalid_argument if [p] is out of range. *)

val min_max : float list -> (float * float) option

val histogram : buckets:int -> float list -> (float * int) list
(** [histogram ~buckets xs] is a list of (bucket lower bound, count) over
    the sample range; empty for an empty sample.
    @raise Invalid_argument if [buckets <= 0]. *)
