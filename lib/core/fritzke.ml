type t = A1.t
type wire = A1.wire

let name = "fritzke"
let tag = A1.tag

let create ~services ~config ~deliver =
  (* The baseline is A1 with both stage skips off; every other knob
     (batching, pipelining, detector, overlay) is the caller's. Under
     Config.default this is Config.fritzke. *)
  A1.create ~services
    ~config:
      { config with Protocol.Config.skip_single_group = false;
        skip_max_group = false }
    ~deliver

let cast = A1.cast
let on_receive = A1.on_receive
let consensus_instances_executed = A1.consensus_instances_executed

let stats = A1.stats
