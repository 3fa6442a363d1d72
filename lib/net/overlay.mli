(** Non-clique WAN overlays over the group graph.

    The paper's model (and every protocol up to PR 9) assumes a clique:
    any group can message any other directly, at the latency the
    {!Latency} model assigns to the pair. Real wide-area deployments are
    not cliques — sites hang off regional hubs, continents form rings —
    and the modern genuine-multicast baselines (FlexCast in particular)
    route messages {e along} such an overlay instead of across it.

    An overlay is an undirected connected graph over the group ids of a
    topology, each edge carrying a latency class. From it we derive, once
    at construction time:
    - deterministic all-pairs routing tables (shortest path by summed
      edge delay, ties broken by hop count and then lowest intermediate
      group id — every process computes the same routes);
    - a {!Latency.t} matrix in which the delay between two groups is the
      summed delay of their route, so {e every existing protocol} runs
      unchanged on the overlay geometry (its direct sends model traffic
      traversing the underlying links);
    - link-crossing metrics ({!inter_crossings}) that let benchmarks
      compare "inter-continental messages per cast" between protocols
      that send directly (crossing several links per message) and
      protocols that forward hop by hop (one link per message). *)

type edge_class =
  | Metro  (** same metropolitan area, 5 ms *)
  | Continental  (** same continent, 20 ms *)
  | Intercontinental  (** cross-continent, 50 ms *)

type kind = Clique | Hub | Ring | Tree | Custom

val kind_name : kind -> string
(** ["clique"], ["hub"], ["ring"], ["tree"], ["custom"]. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}; [Custom] is not parseable (a custom overlay
    is only constructible through {!of_edges}). *)

type t

val of_edges :
  ?kind:kind -> groups:int -> (Topology.gid * Topology.gid * edge_class) list -> t
(** [of_edges ~groups edges] builds an overlay over groups
    [0 .. groups-1] with the given undirected edges. [kind] defaults to
    [Custom] and is purely descriptive.
    @raise Invalid_argument if [groups <= 0], an endpoint is out of
    range, an edge is a self-loop, the same pair appears with two
    different classes, or — the validation every consumer relies on —
    some group pair is not connected. *)

val clique : groups:int -> t
(** Every pair adjacent over an {!Intercontinental} link — the classic
    model as an overlay. *)

val hub : groups:int -> t
(** Hub-and-spoke: group 0 is the hub; every other group hangs off it on
    an {!Intercontinental} link. Spoke-to-spoke routes cross two links. *)

val ring : groups:int -> t
(** A continental ring [0 - 1 - ... - m-1 - 0] of {!Continental} links.
    @raise Invalid_argument if [groups < 3] ([ring] needs a cycle; use
    {!clique} or {!hub} for smaller deployments). *)

val tree : groups:int -> t
(** A binary tree rooted at group 0 (group [i]'s parent is [(i-1)/2]):
    root edges are {!Intercontinental}, deeper edges {!Continental}. *)

val of_kind : kind -> groups:int -> t
(** The named geometry at the given size.
    @raise Invalid_argument on [Custom] (no edge list to build from) or
    when the size is invalid for the kind (e.g. a ring of 2). *)

val groups : t -> int
val kind : t -> kind

val edges : t -> (Topology.gid * Topology.gid * edge_class) list
(** Canonical edge list: each undirected edge once, lower endpoint
    first, sorted. *)

val neighbors : t -> Topology.gid -> Topology.gid list
(** Adjacent groups, ascending. *)

val is_clique : t -> bool
(** Structural: every distinct pair is adjacent (single-group overlays
    are cliques). The FlexCast-degenerates-to-Skeen property holds
    exactly on such overlays. *)

val next_hop : t -> src:Topology.gid -> dst:Topology.gid -> Topology.gid
(** First group after [src] on the route to [dst]; [dst] itself when the
    pair is adjacent, [src] when [src = dst]. *)

val route : t -> src:Topology.gid -> dst:Topology.gid -> Topology.gid list
(** The full route, inclusive of both endpoints ([[src]] when
    [src = dst]). Deterministic: shortest by summed delay, ties by hop
    count then lowest next-hop id. *)

val hops : t -> src:Topology.gid -> dst:Topology.gid -> int
(** Number of overlay links the route crosses (0 when [src = dst]). *)

val dist_us : t -> src:Topology.gid -> dst:Topology.gid -> int
(** Summed jitter-free delay of the route, in microseconds. *)

val inter_crossings : t -> src:Topology.gid -> dst:Topology.gid -> int
(** How many {!Intercontinental} links the route crosses — the unit of
    the msgpath overlay cells: a direct send between the groups costs
    this many inter-continental link traversals. *)

val participants :
  t -> src:Topology.gid -> dsts:Topology.gid list -> Topology.gid list
(** The union of the routes from [src] to each destination (the groups
    FlexCast's dissemination touches) and of the routes between every
    destination pair (the stamp-exchange paths), sorted and deduplicated:
    the full set of groups allowed to take part in an overlay-genuine
    multicast from [src] to [dsts]. On a clique this is exactly
    [src :: dsts]. *)

val cut_edges : t -> (Topology.gid * Topology.gid) list
(** The bridges: edges whose removal disconnects the overlay (all of
    them on a hub or tree, none on a ring or clique of 3+). The
    overlay-aware nemesis partitions along these. *)

val side_of_cut :
  t -> cut:Topology.gid * Topology.gid -> Topology.gid list * Topology.gid list
(** The two group sets a cut edge separates (each side contains its
    endpoint of the edge).
    @raise Invalid_argument if the edge is not a bridge of the overlay. *)

val to_latency : ?jitter:Des.Sim_time.t -> ?intra:Des.Sim_time.t -> t -> Latency.t
(** The derived {!Latency.t}: a matrix whose [(a, b)] entry is
    [dist_us a b] — a direct send between two groups takes as long as
    its route through the overlay. [intra] defaults to 1 ms (the classic
    WAN intra-group delay), [jitter] to zero (crisp, the model-checking
    and differential-friendly default). *)

val check_topology : t -> Topology.t -> unit
(** @raise Invalid_argument when the overlay's group count differs from
    the topology's — the validation every deploy-time consumer calls. *)
