(** Two-level data memory hierarchy: L1D + unified L2 + fixed-latency
    main memory (Table 2). Returns access latencies; port arbitration
    is done by the caller (the core's load/store pipelines). *)

type t

val create : ?prewarm:(int * int) list -> Config.t -> t
(** A cold hierarchy, then {!prewarm} of every [(base, bytes)] range of
    [prewarm] (default none) in order. A repeated range list on the same
    cache geometry is served from this domain's prewarm image (see
    {!prewarm_image_ranges}) instead of being touched line by line; the
    result behaves identically. *)

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
    simply leave its LRU tail resident, as real warmup would. *)

val l1_hits : t -> int
val l1_misses : t -> int
val l2_hits : t -> int
val l2_misses : t -> int
val reset_stats : t -> unit

val reset : ?prewarm:(int * int) list -> t -> unit
(** Back to the post-{!create} state for [prewarm]: every line
    invalidated in both levels, statistics zeroed, then the ranges
    prewarmed as {!create} does. Used by engine reuse across runs. *)

val prewarm_image_ranges : unit -> (int * int) list option
(** The range list of the calling domain's prewarm image, if any.
    Each domain keeps at most one image: the L1/L2 state of the last
    non-empty range list it prewarmed, replaced when a different list
    or cache geometry is prewarmed. An empty list neither uses nor
    stores an image. *)

val drop_prewarm_image : unit -> unit
(** Forget the calling domain's prewarm image. *)
