(** Run (simulation point × machine × configuration) triples and
    collect statistics — the trace-driven methodology of §5.1, with
    every configuration replaying the identical dynamic stream.

    {2 Parallel execution}

    {!run_grouped} and {!run_suite} spread their benchmarks over OCaml
    domains ([domains], default
    {!Clusteer_util.Parallel.default_domains}). Each benchmark is one
    group on {!Clusteer_util.Parallel.map}: whichever worker is free
    claims the next benchmark off one shared cursor and runs all of
    its simulation points. Each worker simulates against {b private}
    state — a counter registry passed down to the policies and the
    engine, an optional self-profiler, and its domain's reuse context
    (below) — so concurrent workers never share mutable state, and a
    benchmark's points hit its worker's caches (OCaml 5 minor
    collections are stop-the-world across all domains; the
    allocation-heavy per-item rebuild is what made the earlier harness
    anti-scale). Worker registries are merged into
    {!Clusteer_obs.Counters.default} once all workers complete.

    Since each point's simulation is a pure function of its trace seed
    and the machine, and since {!Clusteer_obs.Counters.merge} only adds
    (or maxes) integers and every rendering sorts by name, the merged
    totals do not depend on which worker ran which benchmark: every
    domain count produces results and merged counter totals
    bit-identical to a sequential [domains:1] run.

    {2 Reuse contexts}

    Every domain that simulates owns one reuse context for its whole
    life: the calling domain's serves direct calls ({!run_point},
    {!run_workload}) and worker 0 of a parallel call; each long-lived
    helper domain of {!Clusteer_util.Parallel.map} has its own. A
    context holds
    - cached workloads, one {!Clusteer_workloads.Synth.t} per profile,
      at most 64 (the table is emptied when a new profile would pass
      that);
    - compiled annotations, keyed on the program they compile (by
      identity) and the configuration, under one set of compile knobs:
      the machine's cluster count and the [region_uops], [max_chain]
      and [crit_min_scale] of [params]. A call with other compile knobs
      empties the annotations first, so they stay at one knob set's
      worth. The runtime knobs ([remap_threshold], [stall_threshold],
      [imbalance_limit]) and the topology do not change a compile and
      stay out of the key: calls that vary only them reuse it. The
      table holds its programs weakly: a hand-built workload's
      annotations go with the workload;
    - engines, by position in the [configs] list, for one machine: a
      call reuses the engine at each position through
      {!Clusteer_uarch.Engine.reset} (which rebinds the call's sink,
      registry and profiler) and drops them all when its machine
      ({!Clusteer_uarch.Config.t}) differs;
    - one trace buffer, grown to the longest stream run and kept;
      a buffer past 1M positions is dropped after its call.

    A call made while its domain's context is in use (a call from
    inside another on the same domain, e.g. from a sink callback) runs
    on a fresh context, dropped afterwards. A call that raises drops
    its context's engines. None of this is visible in the results:
    each equals a run on fresh workloads, compiles and engines.

    {2 One stream per point}

    The configurations of a point share its dynamic stream: it is
    generated once, into the domain's int-column buffer, which is
    rewound at every point, and each configuration's engine replays it
    through its own cursor ({!Clusteer_uarch.Engine.run_columns}).
    Every engine is reset before any of them runs, so the cache prewarm
    is computed by the first and copied into the others
    ({!Clusteer_uarch.Engine.reset}[ ~warm_from]). Both are invisible
    in the results: they equal a fresh engine and a fresh generator
    per configuration. *)

open Clusteer_uarch
open Clusteer_workloads

type point_result = {
  point : Pinpoints.point;
  runs : (string * Stats.t) list;
      (** configuration name -> statistics, in configuration order *)
}

val trace_seed : Pinpoints.point -> int
(** Deterministic per-point generator seed: a splitmix64-style mix of
    the profile's master seed and the phase index. Distinct
    (seed, index) pairs map to distinct trace seeds across the whole
    realistic range (the previous affine formula collided). *)

val salted_trace_seed : salt:int -> Pinpoints.point -> int
(** {!trace_seed} re-mixed with [salt] through the same splitmix64
    finalizer. [salt = 0] is the identity (exactly {!trace_seed});
    each nonzero salt derives an independent, equally deterministic
    dynamic stream for the same point. The auto-tuner's AB tie-breaks
    replicate measurements over salts [1..n]. *)

val default_warmup : int -> int
(** Default warmup for a measured budget of [uops] committed
    micro-ops: half the measured length, clamped to \[2,000, 10,000\]
    — and always strictly below [uops], so tiny runs still make
    measurable progress. *)

val run_point :
  ?warmup:int ->
  ?seed:int ->
  ?obs:(string -> Clusteer_obs.Sink.t option) ->
  ?registry:Clusteer_obs.Counters.registry ->
  ?profile:Clusteer_obs.Profile.t ->
  ?params:Clusteer.Configuration.params ->
  ?trace_salt:int ->
  machine:Config.t ->
  configs:Clusteer.Configuration.t list ->
  uops:int ->
  Pinpoints.point ->
  point_result
(** Build (or find in the domain's context) the point's workload,
    compile (or find) each configuration's annotation, and simulate
    [uops] committed micro-ops per configuration on the point's one
    stream, after a cache/predictor warmup phase (default:
    {!default_warmup}).

    [obs] maps a configuration name to the observability sink to
    install in that configuration's engine ([None] = uninstrumented,
    the default for every configuration). [registry] receives the
    policies' and the engine's introspection counters (default
    {!Clusteer_obs.Counters.default}). [profile] attaches the pipeline
    self-profiler to every engine created for the point.

    [params] tunes every steering/compiler knob at once (default
    {!Clusteer.Configuration.default_params}) for every configuration
    of the call. [trace_salt] (default 0 = the canonical stream)
    replays the point on the {!salted_trace_seed} stream instead;
    [seed], when given, is the trace seed itself and [trace_salt] is
    ignored (the service layer passes a request's explicit seed).

    Each engine run also adds its committed micro-ops to the
    [harness.uops_committed] counter of [registry] — the figure the
    run ledger divides GC allocation by. *)

val run_workload :
  ?warmup:int ->
  ?seed:int ->
  ?obs:(string -> Clusteer_obs.Sink.t option) ->
  ?registry:Clusteer_obs.Counters.registry ->
  ?profile:Clusteer_obs.Profile.t ->
  ?params:Clusteer.Configuration.params ->
  machine:Config.t ->
  configs:Clusteer.Configuration.t list ->
  uops:int ->
  Synth.t ->
  (string * Stats.t) list
(** Run an explicit workload (a {!Clusteer_workloads.Synth.t}, e.g. a
    hand-built {!Clusteer_workloads.Kernels} kernel) under each
    configuration on the identical trace. [obs] and [registry] as in
    {!run_point}. *)

type engine_tally = { created : int; reset : int }

val engine_tally : unit -> engine_tally
(** Engines the calling domain's {!run_point} and {!run_workload}
    calls have created and reset in place so far, fresh contexts
    included. A caller that runs on one domain reads it before and
    after a call to learn whether the call found warm engines (the
    service layer's [serve.engines.*] counters). *)

val map_isolated :
  ?domains:int ->
  ?into:Clusteer_obs.Counters.registry ->
  (registry:Clusteer_obs.Counters.registry -> 'a -> 'b) ->
  'a list ->
  'b list
(** Registry-isolated parallel map: run [f] over the items on up to
    [domains] domains, each item a group of its own on
    {!Clusteer_util.Parallel.map}, so a free worker claims the next
    item. [f] gets its worker's {b private} counter registry; the
    worker registries merge into [into] (default
    {!Clusteer_obs.Counters.default}) once every worker is done.
    Results keep input order. The merged totals do not depend on
    which worker ran which item ({!Clusteer_obs.Counters.merge} adds
    integers), so as long as [f] is deterministic per item, a parallel
    run is bit-identical to a sequential one. This is the primitive
    behind the service layer's dispatch. *)

val run_grouped :
  ?progress:(string -> unit) ->
  ?warmup:int ->
  ?domains:int ->
  ?profiled:bool ->
  ?params:Clusteer.Configuration.params ->
  ?trace_salt:int ->
  machine:Config.t ->
  configs:Clusteer.Configuration.t list ->
  uops:int ->
  Profile.t list ->
  (Profile.t * point_result list) list
(** Whole-suite sweep, one benchmark per claim: each profile's points
    run in order on the worker that claimed the profile. Returns each
    profile with its point results, in input order — the shape the
    experiment sweeps consume. [progress] is called once per
    benchmark, from the worker that runs the benchmark's first point;
    ordering across benchmarks is therefore not guaranteed under
    [domains > 1]. *)

val run_suite :
  ?progress:(string -> unit) ->
  ?warmup:int ->
  ?domains:int ->
  ?profiled:bool ->
  ?params:Clusteer.Configuration.params ->
  ?trace_salt:int ->
  machine:Config.t ->
  configs:Clusteer.Configuration.t list ->
  uops:int ->
  Profile.t list ->
  point_result list
(** {!run_grouped} with the per-profile results concatenated: every
    (profile, point) result in input order. *)

val weighted_metric :
  point_result list -> config:string -> f:(Stats.t -> float) -> float
(** Phase-weighted metric for one configuration over one benchmark's
    point results. *)

val weighted_pair_metric :
  point_result list ->
  config_a:string ->
  config_b:string ->
  f:(Stats.t -> Stats.t -> float) ->
  float
(** Phase-weighted metric comparing two configurations point by
    point (e.g. slowdown of a vs b). *)

val measured : (unit -> 'a) -> 'a * float * Clusteer_obs.Ledger.gc_delta
(** [measured f] runs [f] and returns its result together with the
    wall-clock seconds and [Gc.quick_stat] deltas it cost — the shape
    the run ledger records for every entry. *)
