(** The hardware half of the paper's hybrid scheme (Figure 4): map
    virtual clusters to physical clusters at run time.

    The only state is a small table with one entry per virtual cluster
    and the per-cluster workload counters the engine already keeps.
    When a chain-leader mark is decoded, the counters are consulted
    and the leader's virtual cluster is remapped to the least-loaded
    physical cluster; every non-leader micro-op simply follows the
    current table entry. No dependence checking, no voting — the two
    components §4.3/Table 1 remove from the hardware-only design. *)

open Clusteer_isa

val make :
  remap_threshold:int ->
  ?registry:Clusteer_obs.Counters.registry ->
  ?topology:Clusteer_topo.Topology.t ->
  annot:Annot.t ->
  clusters:int ->
  unit ->
  Clusteer_uarch.Policy.t
(** [annot] must be a virtual-cluster annotation (scheme ["vc"]).
    The initial table maps virtual cluster [v] to physical cluster
    [v mod clusters]. A leader remaps its VC only when the current
    cluster leads the least-loaded one by more than [remap_threshold]
    in-flight micro-ops (§3's "certain threshold"; unit: in-flight
    micro-ops). Threshold 0 is the paper's literal semantics (always
    move to the least-loaded cluster); the harness's 8
    ([Clusteer.Configuration.default_params], through which the
    auto-tuner sweeps it) adds the hysteresis the ablation bench found
    to pay for itself — it trades a little balance for far fewer
    remap-induced copies. Micro-ops without a VC assignment go to the
    least-loaded cluster.

    [topology] (normally injected by the harness from the machine
    configuration) makes the mapper distance-aware on non-uniform
    fabrics: the remap target becomes the {e nearest} of the
    least-loaded clusters to the VC's current home
    ({!Clusteer_topo.Topology.distance}), and each remap's hop count
    is recorded in a [steer.remap.hops] histogram. On uniform fabrics
    (p2p, bus — or when [topology] is omitted) behavior and counters
    are bit-identical to the seed mapper and no extra histogram is
    registered.

    The policy registers introspection counters into [registry]
    (default {!Clusteer_obs.Counters.default}): [vc.decisions],
    [vc.unassigned], [vc.leader_decisions], [vc.remaps] and the
    [vc.chain_uops_at_leader] histogram (chain length observed when a
    leader consults the workload counters). Counts are per consult:
    a micro-op blocked at dispatch is re-decided, and re-counted,
    every cycle it retries. Counters never influence steering. *)
