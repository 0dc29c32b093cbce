(** The paper's software partitioner (Figure 2): distribute DDG nodes
    into *virtual clusters* at compile time.

    Three steps per region:
    {ol
    {- {b Critical paths}: depth and height via two DDG traversals;
       criticality = depth + height (§4.2).}
    {- {b Partition into VCs}: top-down over the DDG; each instruction
       is priced in every VC via the static completion-time estimator
       and placed where it completes earliest. The contention term is
       scaled down for critical instructions (low slack), so critical
       dependence chains follow their producers into one VC even at
       the cost of imbalance — the behaviour §5.3 observes ("VC can
       send critical dependence chains to one single cluster ... at
       the expense of increasing workload imbalance").}
    {- {b Chains and chain leaders} are identified afterwards by
       {!Chains}.}}

    {2 Knobs}

    The estimator prices a VC at {!Estimate.issue_width} and a
    cross-VC operand at {!Estimate.comm_latency}, the paper's fixed
    constants. Two knobs are arguments, so the auto-tuner
    ({!Clusteer_tune.Param_space}) can sweep them; their paper values
    are [Clusteer.Configuration.default_params]:
    - [crit_min_scale] (dimensionless in \[0, 1\]): the placement
      criticality weight — the contention-scale floor applied to
      zero-slack instructions. 0 makes critical chains follow their
      producers unconditionally; 1 disables criticality-aware
      placement altogether (every instruction priced purely on
      completion time).
    - [max_chain] (micro-ops, 0 = unlimited): chain-length cap applied
      when marking leaders; see {!Chains}. *)

open Clusteer_isa

val assign_region :
  Clusteer_ddg.Ddg.t -> virtual_clusters:int -> crit_min_scale:float -> int array
(** VC assignment (node -> vc id) for one region DDG. *)

val compile :
  program:Program.t ->
  likely:(int -> int option) ->
  virtual_clusters:int ->
  region_uops:int ->
  crit_min_scale:float ->
  max_chain:int ->
  Annot.t
(** Whole-program hybrid annotation (scheme ["vc"]) over regions of at
    most [region_uops] static micro-ops: VC ids plus chain leader
    marks, ready for the runtime mapper. *)
