(** Deterministic parallel map over OCaml 5 domains.

    Experiment sweeps run hundreds of independent simulations; this
    fans them out across domains while keeping results in input order,
    so a parallel sweep is bit-identical to a sequential one.

    There is one schedule. The input is a list of {e groups}; workers
    claim whole groups off one shared atomic cursor, so whichever
    worker is free takes the next group, and a group never splits
    across workers. Callers put work that shares a cache in one group
    (the harness: one group per benchmark, whose points reuse one
    workload) and independent work in singleton groups.

    {2 Long-lived workers}

    Worker 0 is always the calling domain. Workers [1 .. domains - 1]
    are helper domains of one process-wide pool: a helper is spawned
    the first time a call needs it, runs that call's share, and then
    parks on a condition variable until a later call needs it again.
    Helpers are never joined; they end with the process. A process
    therefore spawns at most [d - 1] helpers in its life, [d] being the
    largest [domains] any call used ({!helpers} counts them), and a
    helper's domain-local state ({!Domain.DLS}) outlives the call that
    made it: that is how the harness keeps one reuse context per
    domain.

    One call owns the pool at a time. A call made while another owns
    it (from another domain), or from inside a helper's share of a
    call, does not wait: it runs inline, every group on the calling
    domain with one state ([init 0]). Its results are the same.

    {2 Minor heap}

    OCaml 5 minor collections are stop-the-world across all domains,
    so allocation-heavy parallel regions pass [~minor_heap_words] to
    enlarge each worker's minor heap (fewer global rendezvous, the
    measured root cause of the harness's former anti-scaling). The
    setting lasts: a helper sets its heap once, when it is spawned, to
    the spawning call's request; the caller grows its own the first
    time it runs as worker 0 with the argument; neither is restored
    after the call. A process that calls [map] with
    [~minor_heap_words:w] keeps a minor heap of at least [w] words on
    the calling domain from then on. *)

val map :
  ?domains:int ->
  ?minor_heap_words:int ->
  init:(int -> 's) ->
  f:('s -> 'a -> 'b) ->
  'a list list ->
  'b list list * 's list
(** [map ~init ~f groups] runs up to [domains] workers (default
    {!default_domains}, never more than there are groups). Worker [w]
    builds its private state with [init w] {e inside} its own domain,
    so the state's allocations are domain-local from birth, then
    claims whole groups off one atomic cursor and maps each element
    of a claimed group, in order, with [f state]. It returns
    [(results, states)]: results keep group and element order, states
    come back in worker order (worker 0, the caller's domain, first).
    Which worker ran which group depends on timing, so anything
    merged from the states must not depend on that split. With one
    worker, and on the inline path (see above), no helper is used and
    one state serves every group; an empty input returns [([], [])]
    without calling [init].

    [minor_heap_words], when given, sizes the minor heap of the
    caller and of the helpers this call spawns, for good (see above).

    [f] must be safe to run concurrently with itself on distinct
    elements. The first exception raised by [init] or [f] poisons the
    run: every worker checks the failure flag before each element,
    also in the middle of a group, and stops. The exception is
    re-raised in the caller with the worker's backtrace
    ({!Printexc.raise_with_backtrace}); the helpers park again, and
    the next call uses them as before. *)

val helpers : unit -> int
(** Helper domains spawned so far by this process (all of them parked
    between calls). *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], capped at
    {!default_domain_cap}. The cap only shapes this default; explicit
    [~domains] arguments above it are honoured. *)

val default_domain_cap : int
(** The documented default ceiling (8) applied by {!default_domains}.
    Experiment sweeps are memory-bound enough that more domains has
    not paid off; pass [~domains] explicitly to go beyond it. *)
