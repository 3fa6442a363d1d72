(** Figure 1's analytic cost model, as code.

    The paper compares algorithms by latency degree and inter-group message
    count under the oracle-based primitives of [6] (reliable multicast:
    latency degree 1, [d(k-1)] inter-group messages) and [11] (consensus:
    latency degree 2, [2kd(kd-1)] messages when run across [k] groups of
    [d]). This module encodes those closed forms so that tests can check
    the {e shape} claims mechanically — who is cheaper than whom, where
    the orderings hold — against both the formulas and the measured runs.

    [k] is the number of destination groups, [d] the processes per group,
    [n] the total number of processes. *)

type cost = { latency_degree : int; inter_msgs : int }

(** Figure 1(a): multicast algorithms. *)

val ring : k:int -> d:int -> cost
(** Delporte-Gallet & Fauconnier [4]: degree [k+1], O(kd²) messages. *)

val scalable : k:int -> d:int -> cost
(** Rodrigues et al. [10]: degree 4, O(k²d²) messages. *)

val fritzke : k:int -> d:int -> cost
(** Fritzke et al. [5]: degree 2, O(k²d²) messages. *)

val a1 : k:int -> d:int -> cost
(** Algorithm A1: degree 2 (0 or 1 for single-group messages), O(k²d²). *)

val detmerge_multicast : k:int -> d:int -> cost
(** Aguilera & Strom [1]: degree 1, O(kd) (nulls excluded). *)

(** Figure 1(b): broadcast algorithms. *)

val a2 : n:int -> cost
(** Algorithm A2 (warm): degree 1, O(n²). *)

val multicast_ordering_holds : k:int -> d:int -> bool
(** The headline ordering of Figure 1(a) for [k >= 2]:
    [1] < A1 = [5] < [4]-for-k>=2 and [10] slowest among genuine; and the
    message-count ordering [1] < [4] < (A1 = [5] = [10]) asymptotically. *)

val broadcast_ordering_holds : n:int -> bool
(** Figure 1(b): A2 and [1] at degree 1 beat [12] and [13] at degree 2. *)
