(** Multilevel partitioning driver (Karypis-Kumar scheme, paper §3.3):
    coarsen by heavy-edge matching until the graph is small, split the
    coarsest graph, then project back level by level with boundary
    refinement at each step. *)

val partition :
  ?scratch:Coarsen.scratch ->
  ?seed:int ->
  ?max_imbalance:float ->
  ?refine_passes:int ->
  Wgraph.t ->
  k:int ->
  Partition.t
(** Partition into [k] parts. [max_imbalance] (default 1.25) bounds
    each part's weight relative to the ideal; [refine_passes] (default
    4) bounds refinement rounds per level. Coarsening stops when the
    graph has at most [k] nodes — "the number of coarse nodes equals
    the number of clusters" — or stops shrinking. [scratch] (default a
    fresh one) holds the coarsening buffers, so a compile can reuse one
    across its regions. *)

val initial_partition : Wgraph.t -> k:int -> Partition.t
(** Greedy balanced split of a (small) graph: nodes in descending
    weight order go to the currently lightest part. Exposed for
    testing. *)
