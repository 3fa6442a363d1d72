type t = A1.t
type wire = A1.wire

let name = "fritzke"
let tag = A1.tag

let create ~services ~config:_ ~deliver =
  (* The baseline ignores the caller's optimisation flags: it *is* the
     configuration with every optimisation off. *)
  A1.create ~services ~config:Protocol.Config.fritzke ~deliver

let cast = A1.cast
let on_receive = A1.on_receive
let consensus_instances_executed = A1.consensus_instances_executed

let stats = A1.stats
