(* White-Box Atomic Multicast (see whitebox.mli): the A1 stage kernel
   ({!A1_stages}) plus leader convoys. The kernel runs the stage machine,
   pipelined proposing and decision processing; this module holds the
   wire, the leader view and the convoy-stamp log with its re-send rule. *)

open Net
open Runtime

let name = "whitebox"

type wire =
  | Rm of Msg.t list Rmcast.Reliable_multicast.msg
  | Stamp of { msg : Msg.t; ts : int; from_group : Topology.gid }
      (* The convoy stamp: carries the message itself (like A1's [Ts])
         so a leader that has not yet R-delivered the batch can still
         note the message into stage s0. *)
  | Cons of A1_stages.entry list Consensus.Paxos.msg
  | Hb of Fd.Heartbeat.msg

let tag = function
  | Rm m -> Rmcast.Reliable_multicast.tag m
  | Stamp _ -> "whitebox.stamp"
  | Cons c -> Consensus.Paxos.tag c
  | Hb _ -> "fd.ping"

type convoy = {
  services : wire Services.t;
  my_group : Topology.gid;
  crashed : bool array;
      (* Local view of the oracle failure detector, one flag per pid;
         the leader of a group is its first non-crashed member. *)
  stamp_log : (Msg.t * int * Topology.gid list) Msg_id.Tbl.t;
      (* Own-group decided stamps: id -> (msg, ts, other dest groups).
         Every member logs deterministically at the s0 decide; the log
         is the re-send source for leader rotation, so it is retained
         for the whole run (reported via [stats]) and keeps the message
         itself — a foreign group may need our stamp long after we
         delivered and dropped the pending entry. *)
  mutable stamps_resent : int;
}

type t = { stages : wire A1_stages.t; convoy : convoy }

(* The convoy leader of a group: its first member the local detector has
   not reported crashed. Falls back to the first member if the whole
   group is reported crashed (then nobody acts on the result anyway). *)
let leader_of c g =
  let members = Topology.members_array c.services.Services.topology g in
  let rec first i =
    if i >= Array.length members then members.(0)
    else if c.crashed.(members.(i)) then first (i + 1)
    else members.(i)
  in
  first 0

let is_leader c = leader_of c c.my_group = c.services.Services.self

(* Send our group's stamp for [m] to the leaders of the other
   destination groups — the whole wide-area exchange of this protocol. *)
let send_stamp_to_leaders c (m : Msg.t) ~ts ~others =
  List.iter
    (fun g ->
      c.services.Services.send ~dst:(leader_of c g)
        (Stamp { msg = m; ts; from_group = c.my_group }))
    others

(* Stage s0 → s1 for the messages instance [k] decided. Every member logs
   the decided stamp (deterministic: decisions apply in the same order
   everywhere) so any member promoted to leader can re-send it; only the
   current leader sends now. *)
let log_stamps c k msgs =
  List.iter
    (fun (m : Msg.t) ->
      let others = List.filter (fun g -> g <> c.my_group) m.dest in
      Msg_id.Tbl.replace c.stamp_log m.id (m, k, others);
      if is_leader c then send_stamp_to_leaders c m ~ts:k ~others)
    msgs

(* A crash notification: update the leader view, then — if we are (now)
   our group's leader — re-send the logged stamps the crash could have
   orphaned. A crash in our own group means the old leader may have died
   mid-fanout (or held the leadership the stamps were sent under):
   re-send everything undelivered. A crash in a foreign destination
   group means stamps sent to its old leader may be gone: re-send the
   stamps of messages destined there to its new leader. Receivers
   record stamps idempotently and ignore delivered ids, so duplicate
   re-sends are harmless. *)
let on_crash c q =
  c.crashed.(q) <- true;
  if is_leader c then begin
    let gq = Topology.group_of c.services.Services.topology q in
    Msg_id.Tbl.iter
      (fun _id (msg, ts, others) ->
        (* No local-delivery guard: we may have delivered [msg] long ago
           while a foreign group is still waiting for this stamp. *)
        let resend_to =
          if gq = c.my_group then others
          else if List.mem gq others then [ gq ]
          else []
        in
        if resend_to <> [] then begin
          c.stamps_resent <- c.stamps_resent + List.length resend_to;
          send_stamp_to_leaders c msg ~ts ~others:resend_to
        end)
      c.stamp_log
  end

let cast t = A1_stages.cast t.stages

let on_receive t ~src = function
  | Rm m -> Group_stack.on_rm (A1_stages.stack t.stages) ~src m
  | Stamp { msg; ts; from_group } ->
    A1_stages.proposal t.stages ~from_group ~ts msg
  | Cons m -> Group_stack.on_cons (A1_stages.stack t.stages) ~src m
  | Hb m -> Group_stack.on_hb (A1_stages.stack t.stages) ~src m

let create ~services ~config ~deliver =
  let convoy =
    {
      services;
      my_group = Services.my_group services;
      crashed =
        Array.make (Topology.n_processes services.Services.topology) false;
      stamp_log = Msg_id.Tbl.create 64;
      stamps_resent = 0;
    }
  in
  (* Only the leader holds the foreign stamps, so the final timestamp must
     reach the other members through the second consensus: the group that
     proposed the maximum never skips s2. The leader view and the re-send
     rule listen to the oracle directly: leadership spans groups, so the
     subscription covers every pid. *)
  let stages =
    A1_stages.create ~services
      ~config:{ config with Protocol.Config.skip_max_group = false }
      ~deliver
      ~rm:(fun m -> Rm m)
      ~cons:(fun m -> Cons m)
      ~hb:(fun m -> Hb m)
      ~on_crash:(on_crash convoy) ~on_s0_decided:(log_stamps convoy) ()
  in
  { stages; convoy }

let stats t =
  A1_stages.stats t.stages
  @ [
      ("stamp_log", Msg_id.Tbl.length t.convoy.stamp_log);
      ("stamps_resent", t.convoy.stamps_resent);
    ]
