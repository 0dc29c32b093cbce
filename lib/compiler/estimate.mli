(** Static completion-time estimation.

    The shared model behind the greedy placement passes (OB and the
    VC partitioner): for a candidate placement of a DDG node into a
    part (physical cluster for OB, virtual cluster for VC), estimate
    when the instruction would complete, "based on the dependences,
    the latencies, and the resource contention in the intended
    cluster" (paper §4.2). The estimate is deliberately static — it
    knows nothing about cache misses or dynamic issue order, which is
    exactly the inaccuracy the hybrid scheme's runtime mapping
    compensates for.

    The estimator is imperative: nodes are committed one at a time in
    topological (program) order with {!place}; {!estimate} prices any
    part for the next node. *)

type t

val issue_width : float
(** Per-part issue bandwidth the placement passes assume (micro-ops
    per cycle): 2.0, Table 2's per-cluster INT issue width. *)

val comm_latency : float
(** Cost of a cross-part operand the placement passes assume (cycles):
    1.0, Table 2's 1-cycle point-to-point link. *)

val create :
  parts:int ->
  issue_width:float ->
  ?contention:float array ->
  Clusteer_ddg.Ddg.t ->
  t
(** [issue_width] is the per-part issue bandwidth used to convert
    accumulated work into contention delay; a cross-part operand costs
    {!comm_latency}. [contention.(node)] (default [1.0] for every node)
    scales the contention term per node — the VC pass uses it to let
    critical instructions ignore imbalance and chase their producers.
    It must have one entry per DDG node. *)

val estimate : t -> node:int -> part:int -> float
(** Estimated completion time of [node] if placed in [part]. All its
    DDG predecessors must already be placed. *)

val cheapest : t -> node:int -> int
(** The part with the least {!estimate} for [node]; an exact tie goes
    to the part with less accumulated work, then to the lower index.
    The placement rule of OB and of the VC partitioner's unforced
    nodes. Allocates nothing. *)

val place : t -> node:int -> part:int -> unit
(** Commit the node, updating its completion time and the part's
    accumulated work. *)

val part_of : t -> int -> int
(** Committed part of a node, [-1] when unplaced. *)

val assignment : t -> int array
(** Every node's {!part_of}. This is the estimator's live array, not a
    copy: a later {!place} writes into it. Once every node is placed it
    is the finished assignment. *)

val completion : t -> int -> float
(** Committed completion time; 0 when unplaced. *)

val load : t -> int -> float
(** Accumulated work (summed latencies) of a part. *)

val lightest_part : t -> int
(** Part with the least accumulated work (lowest index on ties). *)
