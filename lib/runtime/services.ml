type 'w t = {
  self : Net.Topology.pid;
  topology : Net.Topology.t;
  send : dst:Net.Topology.pid -> 'w -> unit;
  send_multi : Net.Topology.pid list -> 'w -> unit;
  now : unit -> Des.Sim_time.t;
  set_timer : after:Des.Sim_time.t -> (unit -> unit) -> int;
  cancel_timer : int -> unit;
  lc : unit -> Lclock.t;
  alive : Net.Topology.pid -> bool;
  on_crash_detected :
    delay:Des.Sim_time.t -> (Net.Topology.pid -> unit) -> unit;
  on_fd_perturb : (float -> unit) -> unit;
}

let send_all t pids w = List.iter (fun dst -> t.send ~dst w) pids
let send_multi t pids w = t.send_multi pids w
let send_group t g w = send_all t (Net.Topology.members t.topology g) w

let send_others_in_group t w =
  send_all t (Net.Topology.others_in_group t.topology t.self) w

let my_group t = Net.Topology.group_of t.topology t.self
