(** Dependence-based steering (Canal, Parcerisa & González, HPCA-6 [5]
    in the paper's bibliography): follow your operands, break ties to
    the least-loaded cluster — like OP but without occupancy-aware
    stalling (the front-end never stalls voluntarily; a full queue is
    handled by the dispatch stage like any structural hazard).

    Included beyond Table 3 as the ancestor of OP: comparing the two
    isolates exactly what stall-over-steer buys (§3.1: "some recent
    work has pointed out the benefit of stalling over steering"). *)

val make :
  ?registry:Clusteer_obs.Counters.registry -> unit -> Clusteer_uarch.Policy.t
(** Registers [dep.decisions] and the [dep.vote_ties] histogram
    (clusters tying the source-operand vote) into [registry] (default
    {!Clusteer_obs.Counters.default}). Counters never influence
    steering. *)

type scratch
(** The vote's working arrays, reused across decisions. *)

val scratch : unit -> scratch

val vote : scratch -> Clusteer_uarch.Policy.view -> Clusteer_isa.Uop.t -> int
(** The dependence vote shared by [dep] and [crit]'s critical
    micro-ops: every cluster gets one vote per source operand it
    holds, and the least-loaded cluster among the highest votes wins,
    scanning from the top index (so the highest index wins a load
    tie). Allocates nothing once [scratch] has room for the micro-op's
    sources. *)
