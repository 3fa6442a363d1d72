open Net
open Runtime
module Stage = A1_stages.Stage

let name = "a1"

type wire =
  | Rm of Msg.t list Rmcast.Reliable_multicast.msg
      (* The R-MCast payload is a batch of casts sharing a destination
         set; a singleton when batching is off (the batch id is the first
         message's id, so the unbatched wire pattern is unchanged). *)
  | Ts of { msg : Msg.t; ts : int; from_group : Topology.gid }
  | Tsb of { msgs : Msg.t list; ts : int; from_group : Topology.gid }
      (* Throughput lane: the (TS, m) proposals of one consensus instance
         for every message bound to the same foreign groups, in one
         fan-out (they all propose the same timestamp — the instance
         number). Only sent when batching is on. *)
  | Cons of A1_stages.entry list Consensus.Paxos.msg
  | Hb of Fd.Heartbeat.msg (* only with Config.fd_mode = Heartbeat *)

let tag = function
  | Rm m -> Rmcast.Reliable_multicast.tag m
  | Ts _ -> "a1.ts"
  | Tsb _ -> "a1.tsb"
  | Cons c -> Consensus.Paxos.tag c
  | Hb _ -> "fd.ping"

type t = wire A1_stages.t

(* Whether two destination lists name the same groups besides
   [my_group]. *)
let rec same_others my_group a b =
  match (a, b) with
  | g :: a, _ when g = my_group -> same_others my_group a b
  | _, g :: b when g = my_group -> same_others my_group a b
  | g :: a, h :: b -> g = h && same_others my_group a b
  | [], [] -> true
  | [], _ :: _ | _ :: _, [] -> false

let send_to_others services my_group (m : Msg.t) w =
  Services.send_multi services
    (Topology.pids_of_groups_except services.Services.topology m.dest
       ~except:my_group)
    w

(* Whether a message before [msgs.(i)] shares its foreign groups. *)
let rec seen_before my_group msgs i j =
  j < i
  && (same_others my_group (msgs.(j) : Msg.t).dest (msgs.(i) : Msg.t).dest
     || seen_before my_group msgs i (j + 1))

(* The messages of [msgs.(i .. j)] that share [msgs.(i)]'s foreign
   groups, in order, consed onto [acc]. *)
let rec same_set my_group msgs i j acc =
  if j < i then acc
  else
    let m : Msg.t = msgs.(j) in
    same_set my_group msgs i (j - 1)
      (if same_others my_group m.dest (msgs.(i) : Msg.t).dest then m :: acc
       else acc)

(* Stage s0 → s1 for the [n] messages instance [k] decided, in
   [msgs.(0 .. n-1)]: every member sends the group's proposal [k] to every
   process of the other destination groups. Under batching the proposals
   to one foreign-group set merge into a single [Tsb], one per set in
   first-seen order. *)
let send_proposals services config ~my_group k msgs n =
  let batching = Protocol.Config.batching config in
  for i = 0 to n - 1 do
    let m : Msg.t = msgs.(i) in
    if not batching then
      send_to_others services my_group m
        (Ts { msg = m; ts = k; from_group = my_group })
    else if not (seen_before my_group msgs i 0) then
      send_to_others services my_group m
        (Tsb
           {
             msgs = same_set my_group msgs i (n - 1) [];
             ts = k;
             from_group = my_group;
           })
  done

let create ~services ~config ~deliver =
  A1_stages.create ~services ~config ~deliver
    ~rm:(fun m -> Rm m)
    ~cons:(fun m -> Cons m)
    ~hb:(fun m -> Hb m)
    ~on_s0_decided:
      (send_proposals services config ~my_group:(Services.my_group services))
    ()

let cast = A1_stages.cast

let on_receive t ~src = function
  | Rm m -> Group_stack.on_rm (A1_stages.stack t) ~src m
  | Ts { msg; ts; from_group } -> A1_stages.proposal t ~from_group ~ts msg
  | Tsb { msgs; ts; from_group } -> A1_stages.proposals t ~from_group ~ts msgs
  | Cons m -> Group_stack.on_cons (A1_stages.stack t) ~src m
  | Hb m -> Group_stack.on_hb (A1_stages.stack t) ~src m

let consensus_instances_executed = A1_stages.consensus_instances_executed
let stats = A1_stages.stats
