module Config = struct
  type fd_mode =
    | Oracle
    | Heartbeat of { period : Des.Sim_time.t; timeout : Des.Sim_time.t }

  type prediction =
    | Stop_when_idle
    | Linger of { rounds : int }

  type t = {
    consensus_timeout : Des.Sim_time.t;
    oracle_delay : Des.Sim_time.t;
    skip_single_group : bool;
    skip_max_group : bool;
    rm_mode : Rmcast.Reliable_multicast.mode;
    fd_mode : fd_mode;
    prediction : prediction;
    round_grace : Des.Sim_time.t;
    null_period : Des.Sim_time.t;
    opt_window : Des.Sim_time.t;
    batch_max : int;
        (* Throughput lane: maximum application casts packed into one
           batch (one R-MCast dissemination / one ordering payload).
           1 disables batching entirely — the cast path is byte-identical
           to the pre-batching protocol. *)
    batch_delay : Des.Sim_time.t;
        (* Flush timeout: a partially filled batch is flushed this long
           after its first cast (size-or-timeout policy). Irrelevant when
           [batch_max = 1]. *)
    pipeline : int;
        (* In-flight consensus instance window: up to this many ordering
           instances may be undecided at once (instance i+1 is proposed
           before i decides; decisions are applied in order). 1 preserves
           the sequential instance-per-round behaviour bit-for-bit. *)
    conflict : Conflict.t;
        (* Conflict relation for the generic (conflict-aware) multicast:
           which message pairs must be delivered in a consistent relative
           order. Conflict.total (the default) recovers classic total
           order; total-order protocols ignore this field. *)
    overlay : Net.Overlay.t option;
        (* The WAN overlay the deployment runs on. None (the default)
           means the classic clique model. The overlay-routed protocols
           (flexcast) read it to derive routes; the clique-model
           protocols ignore it — deploy them over
           [Net.Overlay.to_latency] so their direct sends pay the
           routed-path delay. *)
  }

  let default =
    {
      consensus_timeout = Des.Sim_time.of_ms 200;
      oracle_delay = Des.Sim_time.of_ms 50;
      skip_single_group = true;
      skip_max_group = true;
      rm_mode = Rmcast.Reliable_multicast.Eager_nonuniform;
      fd_mode = Oracle;
      prediction = Stop_when_idle;
      round_grace = Des.Sim_time.of_ms 10;
      null_period = Des.Sim_time.of_ms 10;
      opt_window = Des.Sim_time.of_ms 5;
      batch_max = 1;
      batch_delay = Des.Sim_time.of_ms 2;
      pipeline = 1;
      conflict = Conflict.total;
      overlay = None;
    }

  (* The high-throughput lane: batch casts and keep several consensus
     instances in flight. Safety-equivalent to [default] (asserted by the
     batching differentials); trades per-cast latency slack for saturation
     throughput. *)
  let throughput =
    { default with batch_max = 8; batch_delay = Des.Sim_time.of_ms 2;
      pipeline = 4 }

  let batching t = t.batch_max > 1

  let fritzke =
    {
      default with
      skip_single_group = false;
      skip_max_group = false;
    }
end

module type S = sig
  type t
  type wire

  val name : string
  val tag : wire -> string

  val create :
    services:wire Runtime.Services.t ->
    config:Config.t ->
    deliver:(Msg.t -> unit) ->
    t

  val cast : t -> Msg.t -> unit
  val on_receive : t -> src:Net.Topology.pid -> wire -> unit
  val stats : t -> (string * int) list
end
