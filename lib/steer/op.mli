(** OP: occupancy-aware hardware-only steering (González, Latorre &
    González [15] — the paper's baseline, "one of the best
    hardware-only steering algorithms in the literature").

    Sequential dependence-based steering: each micro-op, in program
    order and with fully up-to-date rename-table locations, votes for
    the cluster holding most of its source operands; ties go to the
    least-loaded cluster. Occupancy-awareness adds stall-over-steer:
    when the preferred cluster's issue queue is (nearly) full it is
    better to stall the front-end than to steer the micro-op away from
    its operands — unless another cluster is comfortably idle.

    This is precisely the serialized logic whose hardware cost §2.1
    argues is prohibitive; the simulator charges no extra latency for
    it, making OP an *upper* bound, which is the paper's methodology
    (every scheme is reported as slowdown against OP). *)

val make :
  stall_threshold:int ->
  imbalance_limit:int ->
  ?registry:Clusteer_obs.Counters.registry ->
  ?topology:Clusteer_topo.Topology.t ->
  unit ->
  Clusteer_uarch.Policy.t
(** [stall_threshold] (unit: free issue-queue slots; [15] tunes it
    to 36): minimum free issue-queue slots another cluster must have
    before OP steers away from the preferred cluster instead of
    stalling. [imbalance_limit] (unit: in-flight micro-op difference):
    occupancy gap beyond which balance overrides dependences. Both
    come from [Clusteer.Configuration.params], which holds their paper
    values and through which the auto-tuner sweeps them.

    Tie-breaking in the least-loaded selection rotates its scan start
    by the policy's decision count, so exact ties (equal votes, equal
    load) spread across clusters instead of all collapsing onto
    cluster 0; untied picks are unchanged.

    [topology] (normally injected by the harness from the machine
    configuration) adds one more tie-break level on non-uniform
    fabrics: among equally loaded candidates, prefer the cluster whose
    copies would travel the fewest hops
    ({!Clusteer_topo.Topology.distance}, each source fetched from its
    nearest resident cluster). On uniform fabrics — or when [topology]
    is omitted — the decision stream is bit-identical to the seed
    policy, and the path stays allocation-free either way.

    Registers introspection counters into [registry] (default
    {!Clusteer_obs.Counters.default}): [op.decisions],
    [op.balance_overrides], [op.steer_away], [op.stall_decisions] and
    the [op.vote_candidates] histogram (tied clusters per vote — a
    latency proxy for the serialized vote unit of §2.1). Counts are
    per consult; counters never influence steering. *)
