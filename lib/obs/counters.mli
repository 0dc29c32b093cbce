(** Named counters and histograms that policies and the engine register
    introspection into.

    A registry is a flat namespace of monotonically increasing
    counters and power-of-two-bucketed histograms. Steering policies
    register what their decision logic knows and nothing else can see
    from the outside — VC remap counts, chain length at a leader
    re-steer, how many clusters tied a vote (a latency proxy for the
    serialized steering hardware of §2.1), copy-queue depth at
    insertion. The registry costs a hashtable lookup at registration
    time and a field increment per observation afterwards; it never
    influences simulation behaviour.

    [default] is the process-wide registry most callers use; tests or
    concurrent runs can isolate themselves with {!create}. *)

type registry
type counter
type histogram

val create : unit -> registry
val default : registry

val counter : ?registry:registry -> string -> counter
(** Intern by name: the same name always yields the same counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val histogram : ?registry:registry -> string -> histogram
(** Intern by name. Buckets are powers of two: bucket [i] counts
    observations [v] with [2^i <= v+1 < 2^(i+1)] (so 0 lands in bucket
    0, 1-2 in bucket 1, 3-6 in bucket 2, ...). *)

val observe : histogram -> int -> unit
(** Negative observations clamp to 0. *)

val observe_n : histogram -> int -> int -> unit
(** [observe_n h v k] records [v] [k] times in O(1): the same buckets,
    count, sum and maximum as [k] calls of [observe h v]. Nothing
    changes when [k <= 0]. *)

val hist_count : histogram -> int
val hist_sum : histogram -> int
val hist_max : histogram -> int
(** Largest value observed; 0 when empty. *)

val hist_mean : histogram -> float
val buckets : histogram -> int array
(** Bucket occupancy up to the highest non-empty bucket. *)

val bucket_lo : int -> int
(** Smallest value bucket [i] covers: [2^i - 1]. *)

val bucket_hi : int -> int
(** Largest value bucket [i] covers: [2^(i+1) - 2]. *)

val percentile : histogram -> float -> float
(** [percentile h p] estimates the [p]-quantile ([p] in \[0,1\],
    clamped) by linear interpolation inside the power-of-two bucket
    holding the rank, with the top clamped to the largest value
    actually observed. Exact when a bucket holds one distinct value;
    otherwise within the bucket's range. 0 for an empty histogram.
    Deterministic — a pure function of the bucket contents, so merged
    shard histograms report the same percentiles as a sequential
    run's. *)

val reset : registry -> unit
(** Zero every counter and histogram (registrations survive). *)

val merge : into:registry -> registry -> unit
(** [merge ~into src] adds every counter value and histogram of [src]
    into [into], interning names as needed. Counter values and
    histogram counts/sums/buckets add; histogram maxima take the max.
    Used by the parallel harness to fold per-shard registries into the
    process-wide one in deterministic (input) order; since merging is
    commutative over addition, a parallel run's merged totals equal a
    sequential run's. [src] is not modified. *)

val counters : registry -> (string * int) list
(** Name-sorted counter values. *)

val histograms : registry -> (string * histogram) list
(** Name-sorted histograms. *)

val to_json : registry -> Json.t
val pp : Format.formatter -> registry -> unit
