(** The two file-system helpers every writer of artifacts shares: the
    run ledger, tuner studies, the service's disk spill and figure
    exports. Both report failure as [Sys_error], which [csteer] turns
    into a one-line diagnostic. *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and any missing parents (mode 0o755).
    An existing directory is fine, also one another process creates
    concurrently. Raises [Sys_error] if [dir], or a parent of it, is
    not a directory or cannot be created. *)

val write_atomic : path:string -> (out_channel -> unit) -> unit
(** [write_atomic ~path write] lets [write] fill [path ^ ".tmp"],
    closes it and renames it over [path], so a concurrent reader (or a
    crash) sees the old file or the whole new one, never a torn one.
    If [write] or the close raises, the temporary file is removed and
    the exception re-raised; [path] is untouched. The parent
    directory must exist. *)
