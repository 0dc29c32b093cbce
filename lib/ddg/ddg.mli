(** Data-dependence graphs over a region.

    Nodes are positions in the region's flattened micro-op sequence;
    edges are register true dependences (definition to next uses) and
    conservative memory dependences within a stream (store→load,
    store→store). Each node carries the static latency the compiler
    assumes for it — actual execution latency (cache misses, contention)
    is only known to the simulator, which is exactly the software/
    hardware information gap the paper's hybrid scheme bridges. *)

open Clusteer_isa

type edge = { src : int; dst : int; latency : int }

type t = {
  uops : Uop.t array;  (** node [i] is [uops.(i)] *)
  succs : edge list array;
  preds : edge list array;
}

val node_count : t -> int

val static_latency : Uop.t -> int
(** Latency the compiler assumes: opcode latency, plus the L1 hit time
    for loads. *)

val build : Uop.t array -> t
(** Build the DDG of a program-order micro-op sequence. *)

val of_region : Region.t -> t

val iter_edges : t -> (edge -> unit) -> unit
(** Every edge exactly once, in successor-list order. *)

val roots : t -> int list
(** Nodes with no predecessors. *)

val leaves : t -> int list
(** Nodes with no successors. *)

val is_acyclic : t -> bool
(** Always true for graphs built by {!build}; exposed for testing. *)

val topological_order : t -> int array
(** A topological order of the nodes (program order qualifies and is
    what [build] guarantees, since edges always point forward). *)
