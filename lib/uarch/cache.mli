(** Set-associative cache with true-LRU replacement.

    Tracks tags only (the reproduction never needs data values). Used
    for both L1D and L2. *)

type t

type outcome = Hit | Miss

val create : Config.cache -> t
val sets : t -> int
val ways : t -> int

val access : t -> addr:int -> write:bool -> outcome
(** Look up the line containing [addr]; on a miss the line is filled
    (allocate-on-write as well) and the LRU line evicted. Updates
    recency on hits. *)

val probe : t -> addr:int -> bool
(** Non-mutating lookup. *)

val touch : t -> addr:int -> unit
(** Fill / refresh the line without counting statistics (prefetches
    and warmup are not demand accesses). *)

val invalidate_all : t -> unit

type image
(** The resident lines of a cache and their LRU order, without
    statistics. *)

val save : t -> image option
(** [None] when the cache cannot be imaged: more than 255 ways, or a
    tag beyond 31 bits. *)

val fits : image -> t -> bool
(** The cache has the geometry (sets, ways, line size) of the image's
    source. *)

val save_into : image -> t -> bool
(** Overwrite the image with [t]'s lines, reusing its storage; [false]
    (image left stale) when [t] cannot be imaged. Requires {!fits}. *)

val restore : image -> t -> unit
(** Make [t]'s resident lines and their LRU order the image's:
    afterwards every access hits, misses and evicts exactly as it would
    on the image's source (recency values themselves may differ).
    Statistics are untouched. Requires {!fits}. *)

(* Statistics *)
val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
