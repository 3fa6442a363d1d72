(** Canonical state fingerprints for interleaving deduplication.

    Two interleavings that merely commute independent events reach the
    same protocol state; the explorer prunes revisits by hashing a
    {e canonical} view of the run so far: one history stream per actor
    (process, plus one slot for generic events), insensitive to how the
    streams interleave globally.

    Canonicalisation rules:
    - every trace entry is attributed to its natural actor (sends to the
      source, receives to the destination, casts/deliveries/crashes to
      their process) and mixed into that actor's rolling hash, so the
      global interleaving of independent steps does not matter while the
      per-actor order does;
    - envelope ids (a global counter, interleaving-dependent) are replaced
      by the canonical message id [(src, per-source send ordinal)];
    - event {e times} are excluded — commuted schedules reach the same
      state at different clock readings.

    The fingerprint is a 62-bit hash, not the state itself: pruning on it
    assumes no collisions (astronomically unlikely at model-checking
    scales, but unsound in principle), which is one reason fingerprint
    pruning is a separate opt-in flag in the explorer. *)

type t

val create : n_processes:int -> t
(** A fresh fingerprint shadow for a deployment of [n_processes]. *)

val note_step :
  t -> tag:Des.Scheduler.Tag.t -> trace:Runtime.Trace.t -> unit
(** Records one executed scheduler choice: mixes the choice's tag into its
    actor's stream and consumes the trace entries appended since the last
    call. Must be called after {e every} {!Drive.step} on the deployment,
    with the deployment's live trace. *)

val state : t -> int
(** The current state hash (combines all actor streams). *)
