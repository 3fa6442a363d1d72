(** Process groups and their layout.

    The system is a set [Pi = {0, ..., n-1}] of processes partitioned into
    disjoint, non-empty groups [Gamma = {0, ..., m-1}], mirroring Section 2.1
    of the paper. Processes in the same group model one geographical site. *)

type pid = int
(** A process identifier, dense in [\[0, n)]. *)

type gid = int
(** A group identifier, dense in [\[0, m)]. *)

type t

val make : sizes:int list -> t
(** [make ~sizes:[d0; d1; ...]] is a topology with [List.length sizes]
    groups, group [i] holding [di] processes. Pids are assigned densely,
    group 0 first.
    @raise Invalid_argument if any size is non-positive or the list is
    empty. *)

val symmetric : groups:int -> per_group:int -> t
(** [symmetric ~groups:m ~per_group:d] is [make] with [m] groups of [d]. *)

val n_processes : t -> int
val n_groups : t -> int

val group_of : t -> pid -> gid
(** The group a process belongs to ([group(p)] in the paper). *)

val members : t -> gid -> pid list
(** Processes of a group, in increasing pid order. *)

val members_array : t -> gid -> pid array
(** The group's members as the topology's own backing array (no copy):
    allocation-free access for hot paths and scale-sized topologies. The
    caller must not mutate it. *)

val iter_members : t -> gid -> (pid -> unit) -> unit
(** Allocation-free iteration over a group's members, in pid order. *)

val group_size : t -> gid -> int

val all_pids : t -> pid list
(** All processes, in increasing order. *)

val all_groups : t -> gid list
(** All groups, in increasing order. *)

val same_group : t -> pid -> pid -> bool

val pids_of_groups : t -> gid list -> pid list
(** Union of the given groups' members, in increasing pid order. Duplicated
    group ids are ignored. *)

val pids_of_groups_except : t -> gid list -> except:gid -> pid list
(** [pids_of_groups t gs ~except:g] is [pids_of_groups t] of [gs] without
    [g], built without the filtered group list. *)
