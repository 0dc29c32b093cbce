(** Cycle-indexed timing wheel of non-negative int payloads.

    A power-of-two array of buckets; an entry due at cycle [d] lives in
    bucket [d land mask], in a FIFO with every other entry due that
    cycle. Entries therefore come out in (due cycle, insertion) order:
    the order of a binary heap keyed by due cycle with ties broken by
    insertion sequence, without the heap.

    Every pending entry is due in [\[base, base + buckets)], where
    [base] is the cycle {!pop_due} last advanced to. {!add} of an entry
    due beyond that horizon doubles the bucket array (re-bucketing the
    pending entries in due order) until it fits, so the wheel never
    wraps an entry onto an earlier cycle. Once grown to its working
    size, {!add}, {!pop_due} and {!next_due} allocate nothing. *)

type t

val create : unit -> t
(** An empty wheel of 64 buckets, based at cycle 0. *)

val length : t -> int
val is_empty : t -> bool

val add : t -> due:int -> int -> unit
(** [add t ~due v] queues [v] (which must be non-negative) for cycle
    [due]. Raises [Invalid_argument] when [due] is before the wheel's
    base, i.e. a cycle {!pop_due} has already moved past. *)

val pop_due : t -> int -> int
(** [pop_due t now] removes and returns the first entry due at or
    before [now], in (due, insertion) order, or returns [-1] when none
    is. A [-1] leaves the base at [now] (or where it was, if later), so
    entries added afterwards may be due from [now] on. *)

val next_due : t -> int
(** Due cycle of the entry {!pop_due} would return next; [max_int] when
    the wheel is empty. *)

val clear : t -> unit
(** Drop every entry and move the base back to cycle 0; the bucket
    count is kept. *)
