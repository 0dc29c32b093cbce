(** Pipeline self-profiler: named wall-clock spans feeding
    [profile.<name>.ns] histograms in a {!Counters} registry.

    A span accumulates elapsed nanoseconds over any number of
    {!enter}/{!leave} pairs and contributes {b one} histogram
    observation per {!flush}. The engine enters/leaves its phase spans
    (fetch, dispatch, issue, writeback, commit) every cycle and
    flushes once per {!Clusteer_uarch.Engine.run}, so each run
    contributes its per-phase wall-time total and the histogram's
    p50/p90/p99 summarize the distribution across runs; the service
    layer records one observation per batch (admission, worker
    dispatch) or per request (cache lookup).

    Instrumentation sites hold a [t option]: with [None] installed a
    site is a single pattern match that allocates nothing — the same
    zero-overhead-when-off contract as {!Sink}. Spans observe into the
    profiler's registry, so the parallel harness can give each shard a
    private profiler whose histograms merge back deterministically
    with the rest of the shard registry. *)

type t
type span

val create :
  ?registry:Counters.registry -> ?clock:(unit -> int) -> unit -> t
(** [clock] returns nanoseconds (default: the host's monotonic clock,
    read without allocating); tests substitute a fake clock. Histograms
    intern into [registry] (default {!Counters.default}). *)

val span : t -> string -> span
(** Intern by name: ["engine.commit"] feeds the
    ["profile.engine.commit.ns"] histogram. *)

val enter : span -> unit

val leave : span -> unit
(** Accumulate the nanoseconds since the matching {!enter}; a {!leave}
    without one is ignored. *)

val flush : span -> unit
(** Observe the accumulated nanoseconds as one histogram sample and
    reset the accumulator. *)

val flush_all : t -> unit
(** {!flush} every span created from this profiler. *)

val time : span -> (unit -> 'a) -> 'a
(** [enter]/[leave]/[flush] around one call — one observation. *)
