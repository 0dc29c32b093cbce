(** Minimal JSON tree, encoder and parser.

    Just enough for the observability exporters (Chrome trace files,
    [--json] stats output) without an external dependency. Encoding
    escapes strings per RFC 8259; integers print without a decimal
    point so they survive a round trip through {!of_string}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) encoding. A non-finite [Float] (nan, ±inf),
    which JSON cannot express, is written as [null]. *)

val to_buffer : Buffer.t -> t -> unit

val output : out_channel -> t -> unit

val of_string : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error.
    Numbers with a fraction or exponent parse as [Float], others as
    [Int]. A number too large for a float (e.g. [1e999]) is refused
    with the diagnostic ["number out of range at offset N"], so a
    parsed [Float] is always finite. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] elsewhere or when absent. *)

val to_int : t -> int option
(** [Int n] gives [Some n]; everything else [None]. *)

val to_list : t -> t list option
(** [List l] gives [Some l]; everything else [None]. *)

val to_str : t -> string option
(** [Str s] gives [Some s]; everything else [None]. *)

val to_bool : t -> bool option
(** [Bool b] gives [Some b]; everything else [None]. *)

val to_float : t -> float option
(** [Float] or [Int] as a float; everything else [None]. *)

val equal : t -> t -> bool
(** Structural equality; object fields compare order-sensitively. *)
