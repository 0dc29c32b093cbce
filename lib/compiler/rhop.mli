(** RHOP: region-based hierarchical operation partitioning (Chu, Fan &
    Mahlke, PLDI'03 — paper §3.3 and Table 3).

    Cluster assignment is formulated as weighted graph partitioning and
    solved with the multilevel scheme: slack-derived weights make
    critical dependences heavy (so coarsening groups critical-path
    operations), and refinement trades edge cut against per-cluster
    workload. The result is a *static physical* assignment, like OB —
    its strength is balance, its weakness communication on the critical
    path, which is precisely the trade-off Figure 6(a.2)/(b.2) shows. *)

open Clusteer_isa

val weights_of_ddg :
  Clusteer_ddg.Ddg.t -> Clusteer_graphpart.Wgraph.t
(** Node weight = 1 (issue-slot occupancy); edge weight =
    [1 + 4/(1 + slack)] where the edge's slack is the smaller of its
    endpoints' slacks. *)

val assign_region :
  ?seed:int -> Clusteer_ddg.Ddg.t -> clusters:int -> int array
(** Partition (node -> cluster) of one region DDG; [seed] (default 1)
    seeds the multilevel partitioner's coarsening. *)

val compile :
  program:Program.t ->
  likely:(int -> int option) ->
  clusters:int ->
  region_uops:int ->
  Annot.t
(** Whole-program RHOP annotation (scheme ["rhop"]) over regions of at
    most [region_uops] static micro-ops; region [r] is partitioned
    with seed [1 + r]. *)
