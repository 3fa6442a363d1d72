(** A minimal growable array.

    [Runner] appends one record per cast and per delivery on the
    simulation's hot path; a vector keeps that to an amortised O(1) array
    write instead of a cons per event plus a final [List.rev]. (OCaml 5.2's
    [Dynarray] would do, but this repo targets 5.1.) *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> 'a -> unit

val to_list : 'a t -> 'a list
(** Elements in push order. *)
