(* Layer timing taken from outside the library.

   [Make (P)] is [P] with every entry point wrapped in a span: [create],
   [cast], [on_receive] (classified by [P.tag] into reliable multicast,
   consensus or ordering), the [deliver] upcall, and the [send],
   [send_multi] and timer closures of the services record handed to
   [P.create]. Spans nest on a per-instance stack; a layer's self time is
   its span minus the time covered by the spans opened inside it.

   Every protocol instance is confined to one thread — the DES loop of
   one domain, or one Tcp replica loop — so each instance owns its
   accumulator and nothing on the hot path is shared. Accumulators are
   registered (under a mutex) when the instance is created and folded by
   [drain]. *)

let now = Unix.gettimeofday

(* Layer indices into [acc.self_s] / [acc.calls]. *)
let l_rmcast = 0
let l_consensus = 1
let l_order = 2
let l_cast = 3
let l_deliver = 4
let l_send = 5
let l_timer = 6
let l_create = 7
let n_layers = 8

let layer_names =
  [| "rmcast.handler"; "consensus.handler"; "order.handler"; "amcast.cast";
     "runtime.deliver"; "net.send"; "runtime.timer"; "harness.create" |]

let max_depth = 32

type acc = {
  self_s : float array;
  calls : int array;
  mutable covered_s : float; (* wall time under outermost spans *)
  mutable sends : int; (* destinations, fan-outs counted per target *)
  mutable send_events : int; (* send and send_multi calls *)
  mutable timers_set : int;
  mutable timers_cancelled : int;
  domain : int;
  mutable depth : int;
  start : float array;
  child : float array;
}

let new_acc () =
  {
    self_s = Array.make n_layers 0.;
    calls = Array.make n_layers 0;
    covered_s = 0.;
    sends = 0;
    send_events = 0;
    timers_set = 0;
    timers_cancelled = 0;
    domain = (Domain.self () :> int);
    depth = -1;
    start = Array.make max_depth 0.;
    child = Array.make max_depth 0.;
  }

let enter a =
  let d = a.depth + 1 in
  a.depth <- d;
  a.start.(d) <- now ();
  a.child.(d) <- 0.

let leave a layer =
  let d = a.depth in
  let dur = now () -. a.start.(d) in
  a.self_s.(layer) <- a.self_s.(layer) +. dur -. a.child.(d);
  a.calls.(layer) <- a.calls.(layer) + 1;
  a.depth <- d - 1;
  if d = 0 then a.covered_s <- a.covered_s +. dur
  else a.child.(d - 1) <- a.child.(d - 1) +. dur

let span a layer f =
  enter a;
  match f () with
  | v ->
    leave a layer;
    v
  | exception e ->
    leave a layer;
    raise e

(* ---------- registry ---------- *)

let registry_mu = Mutex.create ()
let registry : acc list ref = ref []

let register a =
  Mutex.lock registry_mu;
  registry := a :: !registry;
  Mutex.unlock registry_mu

(* Sum of [covered_s] over the live registry, without draining it: the
   benchmark reads it around [Engine.run] to split dispatch from handlers. *)
let covered_now () =
  Mutex.lock registry_mu;
  let s = List.fold_left (fun s a -> s +. a.covered_s) 0. !registry in
  Mutex.unlock registry_mu;
  s

(* Totals over every instance created since the last drain. *)
type totals = {
  t_self_s : float array;
  t_calls : int array;
  t_covered_s : float;
  t_sends : int;
  t_send_events : int;
  t_timers_set : int;
  t_timers_cancelled : int;
  per_domain_s : (int * float) list; (* covered time by domain id *)
}

let drain () =
  Mutex.lock registry_mu;
  let accs = !registry in
  registry := [];
  Mutex.unlock registry_mu;
  let self_s = Array.make n_layers 0. and calls = Array.make n_layers 0 in
  let doms = Hashtbl.create 4 in
  let covered = ref 0. and sends = ref 0 and events = ref 0 in
  let set = ref 0 and cancelled = ref 0 in
  List.iter
    (fun a ->
      Array.iteri (fun i s -> self_s.(i) <- self_s.(i) +. s) a.self_s;
      Array.iteri (fun i c -> calls.(i) <- calls.(i) + c) a.calls;
      covered := !covered +. a.covered_s;
      sends := !sends + a.sends;
      events := !events + a.send_events;
      set := !set + a.timers_set;
      cancelled := !cancelled + a.timers_cancelled;
      let prev = Option.value ~default:0. (Hashtbl.find_opt doms a.domain) in
      Hashtbl.replace doms a.domain (prev +. a.covered_s))
    accs;
  {
    t_self_s = self_s;
    t_calls = calls;
    t_covered_s = !covered;
    t_sends = !sends;
    t_send_events = !events;
    t_timers_set = !set;
    t_timers_cancelled = !cancelled;
    per_domain_s =
      List.sort compare (Hashtbl.fold (fun d s l -> (d, s) :: l) doms []);
  }

(* Wire tags are "rm.*" (reliable multicast), "cons.*" (consensus) or a
   protocol's own ordering messages. *)
let layer_of_tag tag =
  let n = String.length tag in
  if n > 3 && tag.[0] = 'r' && tag.[1] = 'm' && tag.[2] = '.' then l_rmcast
  else if n > 5 && String.unsafe_get tag 4 = '.' && String.sub tag 0 4 = "cons"
  then l_consensus
  else l_order

module Make (P : Amcast.Protocol.S) :
  Amcast.Protocol.S with type wire = P.wire = struct
  type wire = P.wire
  type t = { inner : P.t; acc : acc }

  let name = P.name
  let tag = P.tag

  let create ~services ~config ~deliver:upcall =
    let a = new_acc () in
    register a;
    let open Runtime.Services in
    let services =
      {
        services with
        send =
          (fun ~dst w ->
            a.sends <- a.sends + 1;
            a.send_events <- a.send_events + 1;
            span a l_send (fun () -> services.send ~dst w));
        send_multi =
          (fun dsts w ->
            a.sends <- a.sends + List.length dsts;
            a.send_events <- a.send_events + 1;
            span a l_send (fun () -> services.send_multi dsts w));
        set_timer =
          (fun ~after f ->
            a.timers_set <- a.timers_set + 1;
            services.set_timer ~after (fun () -> span a l_timer f));
        cancel_timer =
          (fun h ->
            a.timers_cancelled <- a.timers_cancelled + 1;
            services.cancel_timer h);
      }
    in
    let deliver msg = span a l_deliver (fun () -> upcall msg) in
    let inner = span a l_create (fun () -> P.create ~services ~config ~deliver) in
    { inner; acc = a }

  let cast t m = span t.acc l_cast (fun () -> P.cast t.inner m)

  let on_receive t ~src w =
    span t.acc (layer_of_tag (P.tag w)) (fun () -> P.on_receive t.inner ~src w)

  let stats t = P.stats t.inner
end
