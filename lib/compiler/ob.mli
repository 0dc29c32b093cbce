(** OB: operation-based static placement, the software half of SPDI
    ("static placement, dynamic issue", Nagarajan et al., PACT'04 —
    paper §3.2 and Table 3).

    Per region, instructions are placed greedily in program order onto
    *physical* clusters, minimizing the statically estimated completion
    time; the hardware later issues them dynamically but never revisits
    the placement. Its weakness — the reason the hybrid beats it — is
    that the static contention estimate stands in for true runtime
    workload. *)

open Clusteer_isa

val assign_region :
  Clusteer_ddg.Ddg.t -> clusters:int -> issue_width:float -> int array
(** Placement (node -> cluster) for one region DDG, pricing each
    cluster at [issue_width] micro-ops per cycle. *)

val compile :
  program:Program.t ->
  likely:(int -> int option) ->
  clusters:int ->
  region_uops:int ->
  Annot.t
(** Run region formation (regions of at most [region_uops] static
    micro-ops) and placement at {!Estimate.issue_width} over a whole
    program, producing a static-cluster annotation (scheme ["ob"]). *)
