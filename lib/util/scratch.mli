(** Arrays reused from call to call.

    The compiler passes keep their working tables in a scratch record
    made once per compile (never at module level: compiles run in the
    harness's worker domains) and grow them on demand, so that after
    the first region a region's pass allocates only its results. *)

val fit : 'a array -> int -> 'a -> 'a array
(** [fit a len x] is [a] when it holds at least [len] entries, else a
    fresh array of [max len (2 * Array.length a)] copies of [x]. The
    caller stores the result back into its scratch record. *)

val reset : 'a array -> int -> 'a -> 'a array
(** {!fit}, then the first [len] entries set to [x]. *)
