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

    Because OCaml 5 minor collections are stop-the-world across all
    domains, allocation-heavy parallel regions should also pass
    [~minor_heap_words] to enlarge each domain's minor heap for the
    duration of the region — fewer global rendezvous, the measured
    root cause of the harness's former anti-scaling. *)

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
    worker no domain is spawned and one state serves every group; an
    empty input returns [([], [])] without calling [init].

    [minor_heap_words], when given, enlarges every participating
    domain's minor heap to at least that many words for the duration
    of the call (the caller's setting is restored afterwards; it is
    never shrunk).

    [f] must be safe to run concurrently with itself on distinct
    elements. The first exception raised by [init] or [f] poisons the
    run: every worker checks the failure flag before each element,
    also in the middle of a group, and stops. The exception is
    re-raised in the caller with the worker's backtrace
    ({!Printexc.raise_with_backtrace}). *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], capped at
    {!default_domain_cap}. The cap only shapes this default; explicit
    [~domains] arguments above it are honoured. *)

val default_domain_cap : int
(** The documented default ceiling (8) applied by {!default_domains}.
    Experiment sweeps are memory-bound enough that more domains has
    not paid off; pass [~domains] explicitly to go beyond it. *)
