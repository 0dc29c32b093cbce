(** Two-level data memory hierarchy: L1D + unified L2 + fixed-latency
    main memory (Table 2). Returns access latencies; port arbitration
    is done by the caller (the core's load/store pipelines). *)

type t

val create : ?prewarm:(int * int) list -> Config.t -> t
(** A cold hierarchy, then, in effect, {!prewarm} of every
    [(base, bytes)] range of [prewarm] (default none) in order. Each
    level's final state is computed directly ({!Cache.prewarm}) at a
    cost bounded by its size, not touched line by line. *)

val load_latency : t -> addr:int -> int
(** Latency of a read at [addr]: L1 hit time, or L1 + L2 hit time, or
    L1 + L2 + memory latency, filling lines along the way. When the
    configuration enables [prefetch_next_line], a demand L1 miss also
    fills [addr + line] into both levels (latency-free — an idealised
    prefetcher that is always timely). *)

val store : t -> addr:int -> unit
(** Retired-store write (write-allocate in both levels, no latency
    returned: stores retire through the LSQ). *)

val l1_resident : t -> addr:int -> bool
(** Non-mutating L1 lookup, used by the MSHR check before a load is
    allowed to start. *)

val prewarm : t -> base:int -> bytes:int -> unit
(** Touch every line of the range in both levels without counting
    statistics — restores the warmed cache state a checkpointed
    simulation point would start from. Ranges larger than a cache
    simply leave its LRU tail resident, as real warmup would. The
    line-by-line reference for [create ~prewarm] and [reset ~prewarm]. *)

val l1_hits : t -> int
val l1_misses : t -> int
val l2_hits : t -> int
val l2_misses : t -> int
val reset_stats : t -> unit

val reset : ?prewarm:(int * int) list -> t -> unit
(** Back to the post-{!create} state for [prewarm]: every line
    invalidated in both levels, statistics zeroed, then the ranges
    prewarmed as {!create} does. Used by engine reuse across runs. *)

val reset_from : src:t -> t -> unit
(** Statistics zeroed, then both levels' lines copied from [src], a
    hierarchy of the same configuration ({!Cache.copy_lines}). When
    [src] was last created or reset with [prewarm] and has not been
    accessed since, this equals [reset ~prewarm t] at the cost of a
    copy: the harness computes a point's prewarm once and copies it
    into the other configurations' engines. *)
