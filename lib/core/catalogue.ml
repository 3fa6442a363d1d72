type entry = {
  name : string;
  proto : (module Protocol.S);
  broadcast_only : bool;
  crash_tolerant : bool;
  genuine : bool;
  quiescent : bool;
  uniform : bool;
}

let entry ?(broadcast_only = false) ?(crash_tolerant = false)
    ?(genuine = false) ?(quiescent = true) ?(uniform = true) proto =
  let (module P : Protocol.S) = proto in
  { name = P.name; proto; broadcast_only; crash_tolerant; genuine; quiescent;
    uniform }

let all =
  [
    entry (module A1) ~crash_tolerant:true ~genuine:true;
    entry (module A2) ~broadcast_only:true ~crash_tolerant:true;
    entry (module Via_broadcast) ~crash_tolerant:true;
    entry (module Fritzke) ~crash_tolerant:true ~genuine:true;
    entry (module Skeen) ~genuine:true;
    entry (module Generic) ~genuine:true;
    entry (module Ring) ~genuine:true;
    entry (module Scalable) ~genuine:true;
    entry (module Sequencer) ~broadcast_only:true;
    entry (module Optimistic) ~broadcast_only:true ~uniform:false;
    entry (module Detmerge) ~quiescent:false;
    entry (module Whitebox) ~crash_tolerant:true ~genuine:true;
    entry (module Flexcast) ~genuine:true;
  ]

let find name = List.find_opt (fun e -> e.name = name) all
let soak_targets = List.filter (fun e -> e.quiescent && e.uniform) all
