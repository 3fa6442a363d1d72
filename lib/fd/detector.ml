type t = {
  suspects : Net.Topology.pid -> bool;
  subscribe : (unit -> unit) -> unit;
}

let rec leader t = function
  | [] -> -1
  | p :: rest -> if t.suspects p then leader t rest else p

(* The suspected set is a pid list: it stays empty in a crash-free run, so
   the [suspects] test on every [leader] call is one emptiness check. Pids
   are immediate ints, so [List.memq] compares them exactly. *)
let oracle ~delay (services : _ Runtime.Services.t) =
  let suspected = ref [] in
  let listeners = ref [] in
  services.on_crash_detected ~delay (fun pid ->
      if not (List.memq pid !suspected) then begin
        suspected := pid :: !suspected;
        List.iter (fun f -> f ()) !listeners
      end);
  {
    suspects = (fun q -> List.memq q !suspected);
    subscribe = (fun f -> listeners := !listeners @ [ f ]);
  }
