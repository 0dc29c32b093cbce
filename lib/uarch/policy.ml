open Clusteer_isa

type decision = Dispatch_to of int | Stall

let max_clusters = Sys.int_size - 1
let memo = Array.init max_clusters (fun c -> Dispatch_to c)
let dispatch_to c = if c >= 0 && c < max_clusters then memo.(c) else Dispatch_to c

type view = {
  clusters : int;
  cycle : unit -> int;
  inflight : int -> int;
  queue_free : int -> Opcode.queue -> int;
  src_locations_into : Uop.t -> Clusteer_util.Bitset.t array -> int;
  reg_location : Reg.t -> Clusteer_util.Bitset.t;
  annot : Annot.t;
}

type t = {
  name : string;
  decide : view -> Uop.t -> decision;
  repeat : (view -> Uop.t -> int -> bool) option;
  uses_vote_unit : bool;
}
