(** Whole programs: a control-flow graph of {!Block}s plus the metadata
    the rest of the system needs (register budget, number of memory
    streams and branch models).

    Static micro-op ids are dense in [\[0, uop_count)], so compiler
    annotations ({!Annot}) and per-uop side tables are plain arrays. *)

type t = private {
  name : string;
  blocks : Block.t array;  (** indexed by block id *)
  entry : int;
  nregs_per_class : int;
  uop_count : int;
  stream_count : int;
  branch_model_count : int;
  uop_index : (int * int) array;  (** uop id -> (block id, position) *)
}

val uop : t -> int -> Uop.t
(** Look up a static micro-op by id. O(1). *)

val block_of_uop : t -> int -> int
(** Id of the block containing the given micro-op. *)

val index_in_block : t -> int -> int
(** Position of the micro-op inside its block. *)

val iter_uops : t -> (Uop.t -> unit) -> unit
(** All static micro-ops in (block id, position) order. *)

val pp : Format.formatter -> t -> unit

val of_blocks_unchecked :
  ?name:string ->
  nregs_per_class:int ->
  ?stream_count:int ->
  ?branch_model_count:int ->
  blocks:Block.t array ->
  entry:int ->
  unit ->
  t
(** Assemble a program {b without} the {!Builder}'s validation: blocks
    are taken as given, [uop_count] is derived from the largest uop id
    present, and the uop index maps each id to its (last) occurrence.
    This deliberately admits ill-formed programs — it exists so the
    static analyzer ([lib/analysis]) can be tested against exactly the
    malformed inputs the Builder refuses to construct. Everything else
    should go through {!Builder}. *)

(** Imperative construction API. Typical use:
    {[
      let b = Builder.create ~name:"loop" ~nregs_per_class:32 () in
      let body = Builder.reserve_block b in
      let s = Builder.stream b and m = Builder.branch_model b in
      let u1 = Builder.uop b Opcode.Load ~dst:(Reg.int 1) ~srcs:[| Reg.int 0 |] ~stream:s () in
      ...
      Builder.define_block b body [ u1; ... ] ~succs:[ body; exit_blk ];
      Builder.finish b ~entry:body
    ]} *)
module Builder : sig
  type program = t
  type b

  val create : ?name:string -> nregs_per_class:int -> unit -> b

  val stream : b -> int
  (** Allocate a fresh memory-stream id. *)

  val branch_model : b -> int
  (** Allocate a fresh branch-model id. *)

  val uop :
    b ->
    Opcode.t ->
    ?dst:Reg.t ->
    ?srcs:Reg.t array ->
    ?stream:int ->
    ?branch_ref:int ->
    unit ->
    Uop.t
  (** Allocate a micro-op with a fresh dense id. Register indices must
      be below the builder's [nregs_per_class]. *)

  val reserve_block : b -> int
  (** Allocate a block id to be defined later (for loops and forward
      branches). *)

  val define_block : b -> int -> Uop.t list -> succs:int list -> unit
  (** Fill a reserved block. Each micro-op may appear in exactly one
      block. *)

  val add_block : b -> Uop.t list -> succs:int list -> int
  (** [reserve_block] + [define_block] in one step. *)

  val finish : b -> entry:int -> program
  (** Validate (all blocks defined, successors in range, every
      allocated micro-op placed exactly once) and seal the program. *)
end
