(** Data-dependence graphs over a region.

    Nodes are positions in the region's flattened micro-op sequence;
    edges are register true dependences (definition to next uses) and
    conservative memory dependences within a stream (store→load,
    store→store). Each node carries the static latency the compiler
    assumes for it — actual execution latency (cache misses, contention)
    is only known to the simulator, which is exactly the software/
    hardware information gap the paper's hybrid scheme bridges.

    {2 Layout}

    The graph is stored flat, in compressed sparse rows (CSR), so a
    compile allocates a handful of exact-size int arrays per region and
    nothing per edge. The successors of node [i] are
    [succ.(succ_off.(i)) .. succ.(succ_off.(i + 1) - 1)]; its
    predecessors likewise in [pred] through [pred_off]. An edge's
    latency is the static latency of its source ([latency.(src)]), so
    one per-node array serves both directions.

    {2 Order}

    Every edge points forward ([src < dst]). Successors are in
    insertion order, which is ascending [dst]. Predecessors are in
    insertion order: the reader's source operands in operand order,
    then its memory predecessor. A pair is recorded once, at its first
    insertion. The passes that walk these rows break ties on the first
    maximum (the VC seed paths), so the order is part of their output
    and must not change. *)

open Clusteer_isa

type t = private {
  uops : Uop.t array;  (** node [i] is [uops.(i)] *)
  latency : int array;
      (** node -> {!static_latency}: the latency of each of its out-edges *)
  succ_off : int array;  (** length [node_count + 1] *)
  succ : int array;  (** successor (dst) of each out-edge *)
  pred_off : int array;  (** length [node_count + 1] *)
  pred : int array;  (** predecessor (src) of each in-edge *)
}

val node_count : t -> int
val edge_count : t -> int

val static_latency : Uop.t -> int
(** Latency the compiler assumes: opcode latency, plus the L1 hit time
    for loads. *)

type scratch
(** The tables {!build} works in, grown on demand and reused from call
    to call, so that building a region's graph allocates only the
    graph. One per compile, never shared between domains. *)

val scratch : unit -> scratch

val build : ?scratch:scratch -> Uop.t array -> t
(** Build the DDG of a program-order micro-op sequence, in one pass
    over it (after a scan that sizes the tables): the last writer of
    each register is looked up in a dense
    table indexed by {!Reg.encode}, the last store of each memory
    stream in one indexed by stream, and a repeated pair is dropped by
    remembering, per source, the last destination it was linked to.
    [scratch] defaults to a fresh one. *)

val of_region : ?scratch:scratch -> Region.t -> t

val iter_succs : t -> int -> (int -> unit) -> unit
(** [iter_succs g i f] applies [f] to each successor of [i], in order. *)

val iter_preds : t -> int -> (int -> unit) -> unit
(** [iter_preds g i f] applies [f] to each predecessor of [i], in order. *)

val succ_count : t -> int -> int
val pred_count : t -> int -> int

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] calls [f src dst] for every edge exactly once:
    sources ascending, each source's successors in order. *)

val roots : t -> int list
(** Nodes with no predecessors. *)

val leaves : t -> int list
(** Nodes with no successors. *)

val is_acyclic : t -> bool
(** Always true for graphs built by {!build} (every edge points
    forward, so program order is a topological order); exposed for
    testing. *)
