(** Criticality-aware steering (after the paper's [24], Salverda &
    Zilles): micro-ops marked critical follow their operands by
    {!Dep.vote}, the same vote as [dep] (zero
    communication on the critical path); everything else goes to the
    least-loaded cluster (balance from the slack pool).

    The criticality bits come from {!Clusteer_compiler.Crit_hints} —
    a compile-time oracle standing in for the runtime criticality
    predictors [24] assumes. *)

val make : critical:bool array -> unit -> Clusteer_uarch.Policy.t
