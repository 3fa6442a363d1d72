(** Small descriptive-statistics toolkit for experiment outputs. *)

val mean : float list -> float option

val median : float list -> float option

val percentile : float -> float list -> float option
(** [percentile p xs] for [p] in [\[0, 100\]], nearest-rank method.
    @raise Invalid_argument if [p] is out of range. *)

val min_max : float list -> (float * float) option
