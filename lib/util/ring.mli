(** Fixed-capacity FIFO ring buffer.

    Models hardware queues with a hard size (reorder buffers, issue
    queue candidate latches, fetch buffers): pushes fail when full,
    entries pop in order. Values are stored unboxed: {!push},
    {!front} and {!drop} allocate nothing, while {!peek} and {!pop}
    return options for callers off the hot path. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be positive. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool
val free_slots : 'a t -> int

val push : 'a t -> 'a -> bool
(** Enqueue at the tail; [false] when the buffer is full. *)

val front : 'a t -> 'a
(** Oldest entry, without removing it. Raises [Invalid_argument] when
    empty. *)

val drop : 'a t -> unit
(** Remove the oldest entry. Raises [Invalid_argument] when empty. *)

val peek : 'a t -> 'a option
(** Oldest entry, without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the oldest entry. *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th oldest entry; raises [Invalid_argument] when
    out of range. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest-to-newest iteration. *)

val to_list : 'a t -> 'a list
val clear : 'a t -> unit
