(** Trace generation: instantiate a program into a dynamic micro-op
    stream by walking its CFG under branch and memory models.

    A generator is deterministic in (program, models, seed): the same
    inputs yield the same trace, which is what lets every steering
    policy be evaluated on the *identical* dynamic instruction stream
    (the paper's trace-driven methodology). When the walk reaches a
    program exit it wraps to the entry while branch and memory model
    state keeps rolling (the trace is one long stream, not a periodic
    repeat), so any prefix length can be requested.

    One CFG walk has two outputs. {!fill} writes the stream into int
    columns and allocates nothing: it is what the harness and the
    engine read, through {!Columns}. {!next} boxes one {!Dynuop.t} per
    micro-op, for the callers that want records. Both give the same
    stream. *)

open Clusteer_isa

type t

val create :
  program:Program.t ->
  branches:Branch_model.t array ->
  streams:Mem_model.t array ->
  seed:int ->
  t
(** The model arrays must match the program's [branch_model_count] and
    [stream_count]. *)

val program : t -> Program.t

val next : t -> Dynuop.t
(** Next dynamic micro-op; restarts transparently at program exits.
    Raises [Failure] if the program can make no progress (entry block
    empty and self-looping). *)

val fill :
  t ->
  sid:int array ->
  addr:int array ->
  taken:int array ->
  pos:int ->
  len:int ->
  unit
(** [fill t ~sid ~addr ~taken ~pos ~len] writes the next [len] dynamic
    micro-ops into indices [pos .. pos + len - 1] of the columns: the
    static id, the address ([-1] for non-memory micro-ops) and the
    outcome (1 taken, 0 otherwise). The same stream as [len] calls of
    {!next}, without allocating. *)

val take : t -> int -> Dynuop.t array
(** [take t n] is the next [n] dynamic micro-ops. *)

val generated : t -> int
(** Dynamic micro-ops produced so far. *)
