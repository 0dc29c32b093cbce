(** Criticality hints: per-micro-op "is on a critical path" bits.

    Implements the information a criticality predictor would provide
    at run time (Salverda & Zilles, MICRO-38 — the paper's [24] — study
    steering under criticality information without committing to an
    implementation). We compute it at compile time from region DDG
    slack, which acts as an oracle-ish upper bound for such predictors;
    the {!Clusteer_steer.Crit} policy consumes it. *)

open Clusteer_isa

val compute :
  program:Program.t ->
  likely:(int -> int option) ->
  region_uops:int ->
  slack_threshold:int ->
  bool array
(** [compute ~program ~likely ~region_uops ~slack_threshold] marks
    every static micro-op whose slack within its region DDG is at most
    [slack_threshold] (unit: cycles of estimated schedule slack,
    {!Clusteer_ddg.Critical}; 0 marks exactly the critical paths —
    larger values widen the "critical" set). [region_uops] (unit:
    static micro-ops) is the same region budget the partitioning
    passes use. Both come from [Clusteer.Configuration.params]. *)
