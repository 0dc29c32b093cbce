(** Mutable binary min-heap of ints.

    Used for age-ordered select: the engine packs a micro-op's age and
    slot id into one int, so the smallest entry is the oldest ready
    micro-op and no separate priority, tiebreak or value is stored.
    Once the heap has grown to its working size, {!add} and {!pop_min}
    allocate nothing. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val add : t -> int -> unit

val pop_min : t -> int
(** Remove and return the smallest entry. Raises [Invalid_argument] on
    an empty heap. *)

val clear : t -> unit
