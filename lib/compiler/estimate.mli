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
  ?contention_scale:(int -> float) ->
  Clusteer_ddg.Ddg.t ->
  t
(** [issue_width] is the per-part issue bandwidth used to convert
    accumulated work into contention delay; a cross-part operand costs
    {!comm_latency}. [contention_scale node] (default [fun _ ->
    1.0]) scales the contention term per node — the VC pass uses it to
    let critical instructions ignore imbalance and chase their
    producers. *)

val estimate : t -> node:int -> part:int -> float
(** Estimated completion time of [node] if placed in [part]. All its
    DDG predecessors must already be placed. *)

val place : t -> node:int -> part:int -> unit
(** Commit the node, updating its completion time and the part's
    accumulated work. *)

val part_of : t -> int -> int
(** Committed part of a node, [-1] when unplaced. *)

val completion : t -> int -> float
(** Committed completion time; 0 when unplaced. *)

val load : t -> int -> float
(** Accumulated work (summed latencies) of a part. *)

val lightest_part : t -> int
(** Part with the least accumulated work (lowest index on ties). *)
