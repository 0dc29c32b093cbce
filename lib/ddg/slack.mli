(** Shared longest-path slack over compilation regions.

    Both the compiler's criticality-hint pass ({!Clusteer_compiler}'s
    [Crit_hints]) and the static checker's PL005 verification need the
    same quantity: per static micro-op, the slack of its node in the
    region DDG's longest-path (criticality) analysis. Recomputing it in
    two places let the checker and the compiler drift apart; this module
    is the single implementation both sides call, so a hint the compiler
    emits is by construction the hint the checker expects. *)

open Clusteer_isa

type region_slack = {
  region : Region.t;
  crit : Critical.t;  (** longest-path analysis of the region DDG *)
}

val analyze :
  program:Program.t ->
  likely:(int -> int option) ->
  region_uops:int ->
  region_slack list
(** Build the superblock regions (at most [region_uops] static
    micro-ops each, the compiler's window) and run {!Critical.analyze}
    over each region's DDG. Regions cover the program, so every static micro-op
    appears in exactly one result. *)

val iter :
  region_slack -> (node:int -> uop:Uop.t -> slack:int -> unit) -> unit
(** Visit the region's micro-ops in flattened program order with their
    DDG node index and slack. *)

val hints :
  program:Program.t ->
  likely:(int -> int option) ->
  region_uops:int ->
  slack_threshold:int ->
  bool array
(** Per-static-uop criticality marks: [true] iff the uop's slack is at
    most [slack_threshold] (0 marks critical-path nodes only).
    This is the function whose output PL005 pins. *)
