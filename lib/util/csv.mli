(** Minimal CSV output, for exporting figure series to plotting tools. *)

val escape : string -> string
(** Quote a field when it contains separators, quotes or newlines. *)

val line : string list -> string
(** One CSV record (no trailing newline). *)

val write : path:string -> header:string list -> string list list -> unit
(** Write a header plus rows to [path], replacing it atomically
    ({!Fs.write_atomic}). *)
