(** Annotation serialization.

    In the paper the virtual-cluster ids and chain-leader marks travel
    from the compiler to the hardware inside the binary, through an
    x86 ISA extension. This module is that channel's file form: a
    compiler invocation can emit the annotation once and any number of
    simulations can consume it, without re-running the partitioner.

    Format (line-oriented, versioned):
    {v
    clusteer-annot 1
    scheme <name>
    vcs <n>
    uops <n>
    <uop-id> <vc|-> <leader 0/1> <cluster|->
    ...
    v} *)

val save : path:string -> Annot.t -> unit
(** Write the annotation to [path], replacing it atomically
    ({!Clusteer_util.Fs.write_atomic}). *)

val load : path:string -> Annot.t
(** Raises [Failure] with a line-precise message on malformed input. *)

val to_string : Annot.t -> string
val of_string : string -> Annot.t
