(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the reproduction (workload synthesis,
    branch behaviour, memory streams) draws from an explicit [Rng.t] so
    that whole experiments are reproducible from a single seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val copy : t -> t
(** Independent duplicate of the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. Used to
    give each benchmark phase its own substream. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val mix : int64 -> int64
(** The SplitMix64 finalizer: a bijective bit mix of one 64-bit word,
    the step {!int64} applies to each state. The harness derives trace
    seeds through it. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val geometric : t -> float -> int
(** [geometric t p] counts failures before the first success of a
    Bernoulli(p) trial; mean [(1-p)/p]. [p] is clamped away from 0. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_weighted : t -> ('a * float) array -> 'a
(** Element drawn with probability proportional to its weight. Weights
    must be non-negative and not all zero. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate via Box-Muller. *)
