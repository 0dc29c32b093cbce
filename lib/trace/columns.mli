(** A dynamic micro-op stream stored as int columns.

    Position [p] of the stream sits at index [p - base] of three int
    arrays: the static id, the address and the branch outcome. The
    static micro-op behind an id is [uops.(id)]. Nothing is boxed per
    micro-op, so reading and filling the columns allocates nothing.

    A buffer started by {!rewind} holds its stream from position 0 and
    extends it on demand from one {!Tracegen.t}, so any number of
    readers, each with its own position, replay the identical stream
    while it is generated once. The harness keeps one buffer per
    worker and rewinds it at every simulation point; once it has grown
    to the longest point it stops allocating. *)

open Clusteer_isa

type t = {
  mutable sid : int array;  (** static id *)
  mutable addr : int array;  (** byte address, [-1] for non-memory micro-ops *)
  mutable taken : int array;  (** 1 for a taken branch, 0 otherwise *)
  mutable base : int;  (** stream position of index 0 *)
  mutable len : int;  (** positions held, from [base] *)
  mutable uops : Uop.t array;  (** static id -> static micro-op *)
  mutable refill : t -> int -> unit;
      (** [refill t p] makes position [p] readable: on return
          [base <= p < base + len]. Called by {!ensure} only. *)
}

val create : unit -> t
(** An empty buffer over no stream: {!ensure} raises
    [Invalid_argument] until a {!rewind}. *)

val rewind : t -> Tracegen.t -> unit
(** Restart [t] on [gen]'s stream: position 0 is the micro-op [gen]
    would produce next, and [uops] is [gen]'s program. The columns are
    kept and only grow. Raises [Invalid_argument] if the program names
    two micro-ops under one static id, or a negative id. *)

val of_generator : Tracegen.t -> t
(** A fresh buffer rewound on [gen]. *)

val ensure : t -> int -> unit
(** [ensure t p] makes position [p] readable, generating up to and a
    little past it if needed. *)

val no_uop : Uop.t
(** Filler of [uops] for ids the stream does not name. *)
