(** Every protocol of the library, with the traits the paper sorts
    protocols by (Section 3: genuine or not, quiescent or not, uniform or
    not, broadcast or multicast).

    The traits are claims about the protocol, and they decide which checks
    and run shapes apply to it: a broadcast-only protocol gets casts to
    every group, a non-quiescent one runs under a horizon, a genuine one
    has its genuineness checked, and a failure-free baseline runs without
    crash injection. The CLIs, benches and tests take their names,
    modules and check flags from here. The harness tests check the
    genuine and quiescent claims by running every entry. *)

type entry = {
  name : string;  (** The protocol's [Protocol.S.name]. *)
  proto : (module Protocol.S);
  broadcast_only : bool;
      (** Casts must address every group (atomic broadcast). *)
  crash_tolerant : bool;
      (** Safe and live under crash-stop failures of a minority per
          group. [false] for the failure-free baselines, which Figure 1
          measures in failure-free runs. *)
  genuine : bool;
      (** Only the caster and the addressees of a message take part in
          ordering it (Prop. 3.2's premise). FlexCast's guarantee is the
          overlay-relative one ({!Net.Overlay.participants}); on the
          clique model the two coincide. *)
  quiescent : bool;
      (** After finitely many casts the deployment stops sending, so runs
          drain without a horizon. *)
  uniform : bool;
      (** Agreement covers processes that deliver and then crash, not
          only correct ones. *)
}

val all : entry list
(** The 13 protocols, in a fixed order. *)

val find : string -> entry option
(** The entry of that name. *)

val soak_targets : entry list
(** The [quiescent && uniform] entries of {!all}, in order: the protocols
    the randomised campaigns (amcast_soak, the soak, nemesis and fast-lanes
    suites) run without a horizon and hold to uniform agreement. This
    drops [optimistic] (non-uniform, [12]) and [detmerge] (never
    quiescent). *)
