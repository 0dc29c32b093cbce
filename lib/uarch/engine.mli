(** The cycle-level clustered out-of-order engine.

    Models the baseline of paper §2 (Figure 1): a monolithic front-end
    (fetch pipeline, gshare predictor, in-order decode/rename/steer)
    feeding [clusters] back-end clusters, each with INT/FP/COPY issue
    queues, age-ordered wakeup-select, and functional units; clusters
    exchange register values via explicit copy micro-ops over the
    machine's interconnect fabric ({!Clusteer_topo.Fabric}: the
    paper's 1-cycle point-to-point links by default, or a bus, ring,
    mesh or hierarchical topology); a unified LSQ and two-level
    data-cache hierarchy sit behind the clusters.

    The engine is trace-driven: it consumes a dynamic micro-op stream
    (all steering schemes see the identical stream) and charges
    mispredicted branches as front-end redirect stalls.

    Modelling notes (documented deviations): copy micro-ops occupy the
    24-entry per-cluster COPY queues and link bandwidth but not ROB
    slots; a destination physical register is held from dispatch to
    commit, and dispatch stalls (a register-file stall) when the
    target cluster's INT or FP register file is full.

    After warm-up, running allocates nothing per micro-op or per cycle:
    in-flight micro-ops live in preallocated, recycled slots that name
    their micro-op by static id, so the per-micro-op path stores no
    pointer either (see ARCHITECTURE.md, "In-flight state: flat
    memory").

    Events, commit and issue are skipped on cycles where they cannot
    act (after a cycle in which nothing happened, until the next event
    or the next cycle a blocked ready micro-op could start). When such
    a quiet cycle is followed by more, the engine jumps to the first
    cycle on which anything can change: the earliest of that back-end
    horizon, the cycle fetch may resume (if the fetch queue has room),
    the cycle the fetch-queue head becomes dispatch-ready (if dispatch
    waited on it) and the cycle after the run's cycle bound. The
    skipped cycles are charged in bulk, to the cycle count and to the
    stall they repeat. A dispatch blocked after consulting the policy
    is skipped only if the policy's {!Policy.t.repeat} charges the
    skipped consults; nothing is skipped while a sink ([obs]) is
    installed, as events and interval snapshots are per cycle. Results
    are identical to stepping every stage on every cycle
    ({!For_testing.run_every_cycle}; see ARCHITECTURE.md, "The
    quiescence gate"). *)

open Clusteer_isa
open Clusteer_trace

type t

val create :
  config:Config.t ->
  annot:Annot.t ->
  policy:Policy.t ->
  ?prewarm:(int * int) list ->
  ?obs:Clusteer_obs.Sink.t ->
  ?registry:Clusteer_obs.Counters.registry ->
  ?profile:Clusteer_obs.Profile.t ->
  unit ->
  t
(** Fresh machine state. [annot] is the compiler side-channel the
    policy may consult. [prewarm] lists [(base, bytes)] data ranges to
    pre-load into the cache hierarchy, restoring the warmed state a
    checkpointed simulation point starts from ({!Memsys.create}).
    [registry] receives the engine's introspection instruments (default
    {!Clusteer_obs.Counters.default}); the parallel harness passes a
    per-shard registry so concurrent engines never intern into shared
    state.

    [obs] installs an observability sink: the engine then emits
    structured events (steer decisions with per-cluster occupancy,
    dispatches, copy insertions, link transfers, attributed stalls,
    commits, mispredict redirects) and, when the sink's [interval] is
    positive, a cumulative statistics snapshot every [interval]
    measured cycles. Events are stamped in measured time — the 1-based
    cycle index of the statistics, which restarts at the warmup reset —
    so timestamps line up with the interval samples and the final
    cycle counts. Without a sink every emission site is a single
    pattern match that allocates nothing; simulated behaviour and the
    final {!Stats.t} are identical to an uninstrumented run.

    [profile] attaches the pipeline self-profiler: each {!run} then
    contributes one observation of per-phase wall nanoseconds
    (fetch/dispatch/issue/writeback/commit) to the profiler's
    [profile.engine.*.ns] histograms; issue, writeback and commit are
    timed only on the cycles they run. Like [obs], [None] leaves every
    instrumentation site a single pattern match — disabled profiling
    costs nothing and changes nothing. *)

val reset :
  ?prewarm:(int * int) list ->
  ?obs:Clusteer_obs.Sink.t ->
  t ->
  annot:Annot.t ->
  policy:Policy.t ->
  unit
(** Return the engine to the post-{!create} state on the {b same}
    machine configuration, installing a new annotation/policy pair
    (and optionally a new sink / prewarm ranges). Every piece of
    microarchitectural state — caches, predictor, trace cache, rename
    tags, queues, scoreboards, statistics — is re-initialised in
    place, so a run after [reset] is bit-identical to a run on a
    freshly created engine, without re-allocating the (large) machine
    structures. This is what lets the parallel harness keep one engine
    per (domain × configuration) alive across simulation points. The
    counter registry and self-profiler bindings made at {!create} time
    are retained.

    Note the engine's {!Stats.t} is reset in place: callers that keep
    results across a reset must {!Stats.copy} them first (the harness
    does). *)

val run : ?warmup:int -> t -> source:(unit -> Dynuop.t) -> uops:int -> Stats.t
(** Execute until [uops] program micro-ops have committed after a
    [warmup] phase (default 0) whose purpose is to warm the caches and
    the branch predictor; all statistics are reset when the warmup
    ends, mirroring the standard simulation-point methodology. The
    observability sink is suspended during warmup: the trace covers
    exactly the measured phase.
    [source] supplies the dynamic stream (see
    {!Clusteer_trace.Tracegen.next}). Fetch reads each micro-op once and
    keeps only its static id, address and outcome; the static micro-op
    is recorded per id in a table that {!reset} clears. So one static
    id must name one micro-op between resets: [Invalid_argument] naming
    the id if [source] returns a different one under an id already
    seen. Raises [Failure] if the machine stops making progress (an
    engine bug, surfaced for the tests).

    One run per {!create} or {!reset}: the stopping rule and the cycle
    bound count from a fresh machine, so a second [run] without a
    {!reset} in between raises
    [Invalid_argument "Engine.run: engine already ran; call Engine.reset first"],
    as does a run after one that raised. *)

val stats : t -> Stats.t

(** Test-only entry points. *)
module For_testing : sig
  val run_every_cycle :
    ?warmup:int -> t -> source:(unit -> Dynuop.t) -> uops:int -> Stats.t
  (** {!run} with the quiescence gate held open: every stage runs on
      every cycle, and no cycle is skipped. The reference the gated
      engine is checked against; results, counters and sink events
      must be identical. *)

  val run_checked :
    ?warmup:int -> t -> source:(unit -> Dynuop.t) -> uops:int -> Stats.t
  (** {!run}, checking the machine after every step: each issue
      queue's occupancy, the register files, the LSQ and the ROB stay
      within their sizes; each cluster's in-flight count is never
      negative and equals its live slots; the ROB holds micro-ops in
      program order and commit takes them from its head. Raises
      [Failure "Engine invariant, cycle N: ..."] on the first
      violation. *)

  val steps : t -> int
  (** Cycles stepped one by one since {!create} or {!reset}; the rest
      of {!clock} was skipped. *)

  val clock : t -> int
  (** The engine's internal cycle, warm-up included. *)
end
