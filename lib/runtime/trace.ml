type entry =
  | Send of {
      time : Des.Sim_time.t;
      src : Net.Topology.pid;
      dst : Net.Topology.pid;
      inter_group : bool;
      lc : Lclock.t;
      tag : string;
      env : int;
    }
  | Receive of {
      time : Des.Sim_time.t;
      src : Net.Topology.pid;
      dst : Net.Topology.pid;
      lc : Lclock.t;
      env : int;
    }
  | Cast of {
      time : Des.Sim_time.t;
      pid : Net.Topology.pid;
      id : Msg_id.t;
      lc : Lclock.t;
    }
  | Deliver of {
      time : Des.Sim_time.t;
      pid : Net.Topology.pid;
      id : Msg_id.t;
      lc : Lclock.t;
    }
  | Crash of { time : Des.Sim_time.t; pid : Net.Topology.pid }

type t = { mutable entries : entry list; mutable n : int; enabled : bool }

let create ?(enabled = true) () = { entries = []; n = 0; enabled }

let record t e =
  if t.enabled then begin
    t.entries <- e :: t.entries;
    t.n <- t.n + 1
  end

let enabled t = t.enabled
let entries t = List.rev t.entries
let entries_rev t = t.entries
let length t = t.n

let pp_entry ppf = function
  | Send { time; src; dst; inter_group; lc; tag; env = _ } ->
    Fmt.pf ppf "%a send  p%d -> p%d %s lc=%d%s" Des.Sim_time.pp time src dst
      tag lc
      (if inter_group then " [inter]" else "")
  | Receive { time; src; dst; lc; env = _ } ->
    Fmt.pf ppf "%a recv  p%d -> p%d lc=%d" Des.Sim_time.pp time src dst lc
  | Cast { time; pid; id; lc } ->
    Fmt.pf ppf "%a cast  p%d %a lc=%d" Des.Sim_time.pp time pid Msg_id.pp id
      lc
  | Deliver { time; pid; id; lc } ->
    Fmt.pf ppf "%a dlvr  p%d %a lc=%d" Des.Sim_time.pp time pid Msg_id.pp id
      lc
  | Crash { time; pid } -> Fmt.pf ppf "%a CRASH p%d" Des.Sim_time.pp time pid

let pp ppf t = Fmt.(list ~sep:(any "@\n") pp_entry) ppf (entries t)
