(** Run (simulation point × machine × configuration) triples and
    collect statistics — the trace-driven methodology of §5.1, with
    every configuration replaying the identical dynamic stream.

    {2 Parallel execution}

    {!run_suite} and {!run_grouped} shard their (profile ×
    simulation-point) work items across OCaml domains ([domains],
    default {!Clusteer_util.Parallel.default_domains}).
    The items are pre-partitioned into contiguous per-domain shards
    before spawn; each domain simulates against {b private} state — a counter
    registry passed down to the policies and the engine, an optional
    self-profiler, and a reuse context of cached workloads, compiled
    annotations and reset-in-place engines — so concurrent shards
    never share mutable state and the per-point allocation rate stays
    low (OCaml 5 minor collections are stop-the-world across all
    domains; the allocation-heavy per-item rebuild is what made the
    earlier harness anti-scale). Shard registries are merged into
    {!Clusteer_obs.Counters.default} in shard (= input) order once all
    shards complete.

    Since each point's simulation is a pure function of its trace seed
    and the machine, and since the merges are order-preserving (and
    {!Clusteer_obs.Counters.merge} is commutative and associative over
    disjoint observation streams), every domain count produces results
    and merged counter totals bit-identical to a sequential
    [domains:1] run. *)

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
(** Build the point's workload, compile each configuration's
    annotation, and simulate [uops] committed micro-ops per
    configuration, after a cache/predictor warmup phase (default:
    {!default_warmup}).

    [obs] maps a configuration name to the observability sink to
    install in that configuration's engine ([None] = uninstrumented,
    the default for every configuration). [registry] receives the
    policies' and the engine's introspection counters (default
    {!Clusteer_obs.Counters.default}). [profile] attaches the pipeline
    self-profiler to every engine created for the point.

    [params] tunes every steering/compiler knob at once (default
    {!Clusteer.Configuration.default_params}); it applies uniformly to
    every configuration of the call, which keeps the per-domain
    annotation caches (keyed by configuration name) sound.
    [trace_salt] (default 0 = the canonical stream) replays the point
    on the {!salted_trace_seed} stream instead.

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

val map_isolated :
  ?domains:int ->
  ?chunk:int ->
  ?strategy:Clusteer_util.Parallel.strategy ->
  ?into:Clusteer_obs.Counters.registry ->
  (registry:Clusteer_obs.Counters.registry -> 'a -> 'b) ->
  'a list ->
  'b list
(** Registry-isolated parallel map: run [f] over the items on up to
    [domains] domains, handing [f] a {b private} counter registry —
    one per contiguous shard under {!Clusteer_util.Parallel.Static}
    (the default), one per item under
    {!Clusteer_util.Parallel.Steal} — then merge the private
    registries into [into] (default {!Clusteer_obs.Counters.default})
    in input order. Results keep input order. [chunk] only applies to
    the stealing strategy. Both groupings merge to bit-identical
    totals ({!Clusteer_obs.Counters.merge} is commutative and
    associative); as long as [f] is deterministic per item, a parallel
    run is bit-identical to a sequential one. This is the primitive
    behind {!run_suite} and the service layer's worker pool. *)

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
(** Whole-suite sweep, sharded across domains at simulation-point
    granularity; results keep (profile, point) input order. [progress]
    is called once per benchmark, from whichever domain picks up the
    benchmark's first point — ordering across benchmarks is therefore
    not guaranteed under [domains > 1]. *)

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
(** {!run_suite}, with the flat results regrouped per profile (in
    input order) — the shape the experiment sweeps consume. *)

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
