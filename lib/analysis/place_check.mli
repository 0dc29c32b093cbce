(** Static-placement invariants for OB/RHOP annotations, and
    criticality-hint verification for the criticality-aware policy.

    Codes:
    - [PL001] — a physical cluster id outside [\[0, clusters)].
    - [PL002] — a micro-op left unplaced by a static scheme.
    - [PL003] — ragged annotation arrays. Reported alone.
    - [PL004] (info) — a region assigns more micro-ops of one issue
      queue class to one cluster than that queue holds; purely static
      pressure, so informational (dynamically the queue drains).
    - [PL005] — a claimed criticality hint disagrees with the
      recomputed region-DDG slack. *)

open Clusteer_isa
module Uarch = Clusteer_uarch

val codes : string list

val check :
  program:Program.t ->
  likely:(int -> int option) ->
  annot:Annot.t ->
  config:Uarch.Config.t ->
  region_uops:int ->
  Diag.t list
(** PL001–PL004 for a static-placement annotation. *)

val check_crit :
  program:Program.t ->
  likely:(int -> int option) ->
  critical:bool array ->
  region_uops:int ->
  slack_threshold:int ->
  Diag.t list
(** [PL005]: re-run the criticality analysis and flag hints that
    disagree with the recomputed slack (a hint is expected exactly when
    the micro-op's slack in its region DDG is at most
    [slack_threshold]). *)
