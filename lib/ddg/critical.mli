(** Criticality analysis (paper §4.2).

    Two DDG traversals compute, per node, its [depth] (longest latency
    path from any root up to and excluding the node) and [height]
    (longest latency path from the node, inclusive, down to any leaf).
    The paper defines criticality as their sum; nodes of maximal
    criticality lie on critical paths, and [slack] — the gap to the
    maximum — weights RHOP's partitioning graph. *)

type t = {
  depth : int array;
  height : int array;
  criticality : int array;  (** depth + height, per node *)
  slack : int array;  (** max criticality - criticality, per node *)
  length : int;  (** critical path length = max criticality *)
}

val analyze : Ddg.t -> t

val critical_path : Ddg.t -> t -> int list
(** One maximal zero-slack path, ascending program order: starting from
    a zero-slack root, repeatedly follow a zero-slack successor. *)
