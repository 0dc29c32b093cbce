(** The simulation service: a long-lived batch request server over a
    Unix-domain socket.

    Per-connection batch cycle (the {!Protocol} framing):

    + {b Admission}, in arrival order. A simulate command is resolved
      and validated ([Error_reply] on a bad request), looked up in the
      content-addressed {!Cache} (a hit is answered immediately, no
      queue slot, no deadline check — the lookup {e is} the fast
      path), deduplicated against identical in-flight requests of the
      same batch, and finally admitted to the bounded queue — or
      rejected with [Queue_full] (backpressure is an explicit answer,
      not unbounded latency). A request whose deadline is already
      expired at admission is rejected with [Timeout] without
      simulating.
    + {b Dispatch}, oldest deadline first (no deadline sorts last;
      ties in arrival order). The worker pool runs the queue on
      {!Clusteer_harness.Runner.map_isolated}: a free worker claims
      the next job, and each worker counts into a private registry
      that is merged back once the batch is done, so concurrent jobs
      keep the bit-determinism of a sequential run. A job whose
      deadline expires while it waits behind earlier work is dropped
      with [Timeout] before any simulation happens.
    + {b Reply}: one response line per command line, in command order.
      Fresh results are admitted to the cache (and spill to disk as
      the byte budget forces evictions).

    Instrumentation (in the server's registry): the [serve.cache.*]
    counters of {!Cache}, [serve.requests], [serve.batches],
    [serve.simulations], [serve.rejected.queue_full],
    [serve.rejected.timeout], [serve.errors], and histograms
    [serve.queue.depth] (depth observed at each admission),
    [serve.batch.size] and [serve.latency.us] (per simulate request,
    arrival to completion).

    The [metrics] command answers a Prometheus-style text scrape of
    that registry ({!Clusteer_obs.Expo}). With [profile] set (or
    implied by [ledger_dir]) the self-profiler adds
    [profile.serve.admission.ns] / [profile.serve.dispatch.ns] (one
    observation per batch), [profile.serve.cache_lookup.ns] (one per
    lookup) and the workers' [profile.engine.*.ns] phase timings. With
    [ledger_dir] set, every batch also appends a
    {!Clusteer_obs.Ledger} entry ([kind = "serve_batch"]) capturing
    wall time, GC deltas over the batch, the committed micro-ops of
    its fresh simulations, and the full registry snapshot. *)

type config = {
  socket_path : string;
  queue_depth : int;  (** admission bound per batch (default 64) *)
  domains : int option;  (** worker-pool width; [None] = harness default *)
  cache_budget : int;  (** in-memory cache byte budget *)
  cache_dir : string option;  (** disk spill directory, e.g. [_cache/] *)
  ledger_dir : string option;
      (** record every batch in a {!Clusteer_obs.Ledger} at this
          directory; implies [profile] *)
  profile : bool;  (** attach the pipeline self-profiler *)
  log : string -> unit;  (** diagnostic lines (default: drop) *)
}

val default_config : socket_path:string -> config
(** queue_depth 64, default domains, 64 MB cache, no disk spill, no
    ledger, profiler off, silent log. *)

val serve : ?registry:Clusteer_obs.Counters.registry -> config -> unit
(** Bind the socket (replacing a stale file at that path), accept
    connections one batch at a time, and block until a client sends
    [shutdown]. The socket file is unlinked on exit. Counters go to
    [registry] (default {!Clusteer_obs.Counters.default}). *)
