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

val prewarm : t -> stride:int -> (int * int) list -> unit
(** Invalidate every line, then leave [t] exactly as {!touch} of
    [base], [base + stride], ... up to the end of each [(base, bytes)]
    range (at least [base] itself), range after range, would: each set
    holds its [ways] most recently touched distinct lines, ranked by
    last touch. One newest-first scan finds them and stops once every
    set is full, so the cost is bounded by the cache size, not the
    ranges' footprint. Allocates nothing; statistics are untouched. *)

val copy_lines : src:t -> t -> unit
(** Give [t] the lines, recency and clock of [src], a cache of the same
    shape ([Invalid_argument] otherwise): every later access behaves as
    it would on [src]. Statistics are untouched. Allocates nothing. *)

(* Statistics *)
val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
