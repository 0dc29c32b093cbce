(** Growable integer arrays: a dense int vector that grows on demand,
    for tables indexed by a count with no fixed bound (the VLIW
    scheduler's per-cycle unit reservations). *)

type t

val create : ?initial:int -> default:int -> unit -> t
(** [default] fills newly exposed slots. *)

val length : t -> int
(** One past the highest index ever written or [push]ed. *)

val get : t -> int -> int
(** [get t i] returns the default for indexes never written (but still
    raises on negative indexes). *)

val set : t -> int -> int -> unit
(** Auto-grows. *)

val push : t -> int -> int
(** Append and return the new element's index. *)

val clear : t -> unit
