(** Mutable binary min-heap keyed by integer priority.

    Used for event ordering and for select logic where the oldest /
    cheapest candidate wins. Ties are broken by insertion order (FIFO),
    which matters for age-ordered instruction select.

    Entries are kept in parallel arrays, so once the queue has grown to
    its working size {!add}, {!min_prio} and {!pop_value} allocate
    nothing; {!peek}, {!pop} and {!pop_while} build options, tuples and
    lists and are for callers off the hot path. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> int -> 'a -> unit
(** [add t priority v] inserts [v]. Smaller priorities pop first; equal
    priorities pop in insertion order. *)

val min_prio : 'a t -> int
(** Priority of the entry {!pop_value} would remove next. Raises
    [Invalid_argument] on an empty queue. *)

val pop_value : 'a t -> 'a
(** Remove the minimum entry and return its value. Raises
    [Invalid_argument] on an empty queue. *)

val peek : 'a t -> (int * 'a) option
val pop : 'a t -> (int * 'a) option
val clear : 'a t -> unit

val pop_while : 'a t -> (int -> bool) -> (int * 'a) list
(** [pop_while t keep] pops, in order, every minimum whose priority
    satisfies [keep] and returns them oldest-first. *)
