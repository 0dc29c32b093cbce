(** Chain and chain-leader identification (paper Figure 3).

    Within a region, a {e chain} is a maximal run of consecutive
    (program-order) micro-ops carrying the same virtual-cluster id. The
    first micro-op of each chain is its {e leader} and gets a special
    mark: at run time the hardware consults the workload counters and
    updates the VC→physical mapping table only when it decodes a
    leader; every non-leader simply follows the current table entry.
    Chain selection therefore controls how often the hardware may
    rebalance — the knob the whole hybrid scheme turns on.

    {b Chain-length cap} ([max_chain], unit: micro-ops; 0 = unlimited,
    the paper's Figure 3 semantics): when positive, a run of
    same-VC micro-ops is split into chains of at most [max_chain]
    micro-ops, each starting with its own leader mark. A shorter cap
    gives the hardware mapper more remap opportunities (better load
    tracking) at the price of more table consultations and potentially
    more remap-induced copies — a tunable the paper never swept, exposed
    to {!Clusteer_tune.Param_space} as [max_chain]. *)

open Clusteer_isa

val iter_chain_starts :
  max_chain:int ->
  vc_of:(int -> int) ->
  Clusteer_ddg.Region.t ->
  (int -> vc:int -> start:bool -> unit) ->
  unit
(** Walk the region's micro-ops in program order, telling the callback
    for each uop id whether it starts a chain under the given VC
    assignment and cap. This is the single source of truth for chain
    structure: {!mark_region} writes leader marks through it and the
    static analyzer's VC005/VC006 checks recompute expectations through
    it, so the two can never drift. *)

val mark_region : max_chain:int -> Annot.t -> Clusteer_ddg.Region.t -> unit
(** Set leader marks for one region whose [vc_of] entries are already
    filled. The region's first micro-op always starts a chain. *)

val chains_of_region :
  max_chain:int -> Annot.t -> Clusteer_ddg.Region.t -> int list list
(** The chains, each as the list of uop ids, in program order.
    Useful for inspection and tests. *)
