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

(* Stage s0 → s1 for the messages instance [k] decided: every member sends
   the group's proposal [k] to every process of the other destination
   groups. Under batching the proposals to one foreign-group set merge into
   a single [Tsb], one per set in first-seen order. *)
let send_proposals services config ~my_group k msgs =
  let others (m : Msg.t) = List.filter (fun g -> g <> my_group) m.dest in
  let send groups w =
    Services.send_multi services
      (Topology.pids_of_groups services.Services.topology groups)
      w
  in
  if Protocol.Config.batching config then begin
    let rec add key m = function
      | [] -> [ (key, [ m ]) ]
      | (key', ms) :: rest when List.equal Int.equal key key' ->
        (key', m :: ms) :: rest
      | b :: rest -> b :: add key m rest
    in
    List.fold_left (fun acc m -> add (others m) m acc) [] msgs
    |> List.iter (fun (key, ms) ->
           send key (Tsb { msgs = List.rev ms; ts = k; from_group = my_group }))
  end
  else
    List.iter
      (fun m -> send (others m) (Ts { msg = m; ts = k; from_group = my_group }))
      msgs

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
  | Rm m -> A1_stages.on_rm t ~src m
  | Ts { msg; ts; from_group } -> A1_stages.proposal t ~from_group ~ts msg
  | Tsb { msgs; ts; from_group } ->
    (* A closure, not a partial application of the labelled [proposal]:
       that one costs about 150 more minor words per delivery on the
       100-group throughput workload. *)
    List.iter (fun m -> A1_stages.proposal t ~from_group ~ts m) msgs
  | Cons m -> A1_stages.on_cons t ~src m
  | Hb m -> A1_stages.on_hb t ~src m

let pending_count = A1_stages.pending_count
let clock = A1_stages.clock
let consensus_instances_executed = A1_stages.consensus_instances_executed
let stats = A1_stages.stats
