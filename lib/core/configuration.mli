(** The five steering configurations of paper Table 3 (plus the §2.1
    parallel-steering strawman), each bundling its compile-time pass
    and its runtime policy.

    {!prepare} is the one-call entry point: given a program (and the
    profile feedback its workload provides), it runs whatever compiler
    pass the configuration needs ({!Clusteer_compiler.Ob},
    {!Clusteer_compiler.Rhop} or {!Clusteer_compiler.Vc_partition}; the
    hardware-only configurations get an empty annotation) and returns
    the annotation together with a fresh runtime
    {!Clusteer_uarch.Policy.t} for a machine with [clusters] physical
    clusters.

    {!default_params} is the one place the paper's knob values are
    written: the compiler, analysis, steering and VLIW modules take
    every knob as a required argument, and their callers pass it from
    a {!params} record. *)

open Clusteer_isa

type t =
  | Op  (** occupancy-aware hardware-only steering [15] — the baseline *)
  | One_cluster  (** every micro-op to cluster 0 *)
  | Ob  (** static-placement dynamic-issue (SPDI) operation-based [19] *)
  | Rhop  (** region-based hierarchical operation partitioning [8] *)
  | Vc of { virtual_clusters : int }
      (** the paper's hybrid: software VC partitioning + hardware
          mapping. [Vc {virtual_clusters = 2}] on a 4-cluster machine
          is the paper's VC(2→4). *)
  | Op_parallel  (** §2.1 ablation: OP with stale intra-bundle locations *)
  | Dep  (** extension beyond Table 3: dependence-based steering [5],
             i.e. OP without stall-over-steer *)
  | Crit
      (** extension beyond Table 3: criticality-aware steering after
          [24] — critical micro-ops chase operands, the rest balance *)

val name : t -> string
(** Short identifier, e.g. ["vc2"]. *)

val of_name : string -> (t, [ `Msg of string ]) result
(** Inverse of {!name} (case-insensitive; also accepts ["one"] for
    ["one-cluster"]). The CLI's [--policy] parser and the service
    layer's request decoder both go through this, so the wire name of
    a policy is the same everywhere. *)

val description : t -> string
(** Table 3 description. *)

val table3 : clusters:int -> t list
(** The configurations evaluated against each other for a machine of
    the given size (2 → Fig. 5 set, 4 → Fig. 7 set). *)

type params = {
  remap_threshold : int;
      (** {!Clusteer_steer.Vc_map} remap hysteresis (in-flight
          micro-ops, default 8): a chain leader re-maps its VC to the
          least-loaded physical cluster only when the current target's
          occupancy exceeds the minimum by more than this margin
          (§3's "certain threshold"). 0 re-maps at every leader; large
          values freeze the initial mapping. *)
  stall_threshold : int;
      (** {!Clusteer_steer.Op} stall-over-steer bound (free IQ slots,
          default 36): OP stalls dispatch rather than mis-steer when
          the preferred cluster has fewer free issue-queue slots than
          this ([15]'s tuned constant). *)
  imbalance_limit : int;
      (** {!Clusteer_steer.Op} imbalance override (in-flight micro-op
          difference, default 200): when the occupancy gap between
          clusters exceeds this, OP steers to the lightest cluster
          regardless of operand locality. *)
  region_uops : int;
      (** Superblock region budget (static micro-ops, default 512):
          the compiler's region builder stops growing a region at this
          many micro-ops (§4.1's scheduling-region size). The static
          checker and the VLIW substrate rebuild the same regions. The
          §4.2 estimator's issue width and link cost are not knobs:
          they are the constants {!Clusteer_compiler.Estimate.issue_width}
          and {!Clusteer_compiler.Estimate.comm_latency}. *)
  crit_min_scale : float;
      (** Placement criticality weight (dimensionless in \[0, 1\],
          default 0.15): contention-scale floor applied to zero-slack
          instructions in the VC partitioner. 0 makes critical chains
          follow their producers unconditionally; 1 disables
          criticality-aware placement (§5.3). *)
  max_chain : int;
      (** Chain-length cap (micro-ops, default 0 = unlimited): the
          compiler starts a fresh chain — i.e. inserts an extra chain
          leader, giving the hardware an extra re-mapping opportunity —
          whenever a same-VC run reaches this length. The paper's
          chains are maximal (§4.2); this is a tuner extension. See
          {!Clusteer_compiler.Chains}. *)
  slack_threshold : int;
      (** {!Clusteer_compiler.Crit_hints} criticality cut-off (cycles
          of slack, default 0): micro-ops with at most this much slack
          are marked critical for the [Crit] policy ([24]). *)
  topology : Clusteer_topo.Topology.t option;
      (** Inter-cluster fabric the steering layer should assume
          (default [None] — the paper's uniform 1-cycle point-to-point
          baseline). When set to a non-uniform topology (ring, mesh,
          hier), {!Clusteer_steer.Vc_map} remaps to the nearest of the
          least-loaded clusters and {!Clusteer_steer.Op} breaks load
          ties toward fewer copy hops; on p2p/bus (or [None]) both
          policies are bit-identical to the seed. The harness
          ({!Clusteer_harness.Runner}) overwrites this field with the
          machine's [Config.topology] so the engine's copy fabric and
          the steering layer always agree; set it manually only when
          calling {!prepare} directly. *)
}
(** Every tunable steering/compiler knob in one record — the single
    source of truth the auto-tuner's parameter space
    ({!Clusteer_tune.Param_space}) encodes into and reads its menu
    defaults from. Field defaults ({!default_params}) reproduce the
    paper's Table 2/§4 constants exactly, so
    [prepare ~params:default_params] is identical to [prepare] without
    [?params]. No module below this one defaults a knob. *)

val default_params : params
(** The paper's constants; see each field of {!params}. *)

val prepare :
  t ->
  program:Program.t ->
  likely:(int -> int option) ->
  clusters:int ->
  ?params:params ->
  ?annot:Annot.t ->
  ?registry:Clusteer_obs.Counters.registry ->
  unit ->
  Annot.t * Clusteer_uarch.Policy.t
(** [params] tunes every knob at once (default {!default_params}).

    [registry] is where the policy registers its introspection
    counters (default {!Clusteer_obs.Counters.default}). The parallel
    harness passes a private registry per shard so concurrent runs
    never share mutable counter state, then merges the shards back
    deterministically.

    [annot] supplies a previously compiled annotation and skips the
    compiler pass. The pass is deterministic in (configuration,
    program, likely, clusters, params) and reads only the compile knobs
    of [params] ([region_uops], [max_chain], [crit_min_scale]), so the
    harness caches the annotation per (program, configuration) under
    one set of compile knobs within a domain and passes it back here;
    the returned policy is always fresh (policies are stateful). Must
    only be given an annotation produced by {!prepare} on the same
    configuration and inputs. *)
