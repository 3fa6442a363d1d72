(** A chunked work-distribution pool over OCaml 5 domains.

    Built for the campaign/soak workload: many independent, seeded,
    CPU-bound simulations with no shared mutable state. Workers claim
    chunks of the index range with an atomic counter; each result is
    written to its own index, so the output order is the index order and
    therefore deterministic regardless of how domains interleave. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the sensible upper bound for
    [?domains] on this machine. *)

val tabulate : ?domains:int -> int -> (int -> 'b) -> 'b array
(** [tabulate ~domains n f] is [Array.init n f], computed on [domains]
    domains (default {!recommended_domains}; clamped to [n]; [~domains:1]
    runs sequentially in the calling domain with no domain spawned).
    Because workers receive only an index, the {e input} of each task can
    be generated inside the claiming domain — this is what lets sharded
    campaigns derive scenario [i] from a pure per-index RNG substream
    instead of materialising every input up front on the coordinating
    domain. [f] must be safe to call from any domain and must not share
    mutable state across indices. If any application of [f] raises, the
    first exception observed is re-raised after all domains have been
    joined.

    @raise Invalid_argument when [domains < 1]. *)
