(** Renders a run trace as a per-process timeline.

    One column per process, one row per event, so protocol behaviour — the
    rmcast fan-out, the consensus rounds inside a group, the TS exchange
    crossing groups, a crash going silent — is readable at a glance.
    Used by [amcast_sim --print-timeline] and handy in the toplevel while
    debugging protocols. *)

val pp :
  ?max_rows:int ->
  topology:Net.Topology.t ->
  Format.formatter ->
  Runtime.Trace.t ->
  unit
(** [pp ~topology ppf trace] prints a textual table; [max_rows] (default
    200) truncates long traces with an ellipsis row. *)
