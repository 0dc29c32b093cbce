(** Chrome [trace_event] exporter.

    Renders a run's events and interval samples as the JSON object
    format understood by [chrome://tracing] and Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev} → "Open trace file").

    Layout: one process ("clusteer"), one named thread per cluster plus
    a "frontend" thread. Steer decisions, dispatches, copies, commits
    land as instant events on their cluster's track; stalls and
    redirects on the frontend track; link transfers as duration slices
    (their [dur] is the modelled link latency); interval telemetry as
    counter tracks (ipc, copy rate, per-reason stalls, per-cluster
    dispatch share). Timestamps are cycles, reported in the trace's
    microsecond unit — read "1 us" as "1 cycle". *)

val to_json :
  clusters:int ->
  events:Event.t list ->
  samples:Interval.sample list ->
  Json.t

val write :
  path:string ->
  clusters:int ->
  events:Event.t list ->
  samples:Interval.sample list ->
  unit
(** Write the trace to [path], replacing it atomically
    ({!Clusteer_util.Fs.write_atomic}). *)
