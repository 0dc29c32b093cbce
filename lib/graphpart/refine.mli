(** Refinement step: greedy boundary moves (Fiduccia-Mattheyses style).

    Walking back up the coarsening hierarchy, nodes on part boundaries
    are moved to the part that most reduces the edge cut, subject to a
    balance constraint — the paper's "improvement to the initial
    partition based on metrics such as the workload per cluster and the
    total system workload".

    Each function reads and writes the first [node_count] entries of
    the partition array, which may be longer (the multilevel driver
    keeps every level's partition in one array). Connectivity to each
    part is summed in {!Wgraph} row order. *)

val pass :
  Wgraph.t -> Partition.t -> k:int -> max_imbalance:float -> bool
(** One in-place refinement pass over all nodes; returns [true] when at
    least one move was applied. A move to part [p] is admissible when
    after it [p]'s weight stays within [max_imbalance] times the ideal
    part weight, or when it strictly improves the current worst
    imbalance. *)

val rebalance :
  Wgraph.t -> Partition.t -> k:int -> max_imbalance:float -> unit
(** Force the partition under the imbalance cap by evicting the
    cheapest boundary nodes from overweight parts, even at negative
    cut gain. *)

val run :
  Wgraph.t -> Partition.t -> k:int -> max_imbalance:float -> passes:int -> unit
(** Iterate {!pass} until a fixed point or [passes] rounds, then
    {!rebalance} and one final gain pass; the per-part link and weight
    arrays are allocated once for the whole run. *)
