(** Whole-program evaluation on the VLIW substrate.

    Every region of the program is scheduled independently (as a VLIW
    compiler would schedule superblocks) and the results aggregated.
    Comparing {!Unified} (the VLIW-native assign-and-schedule) against
    {!Fixed} partitions produced by the OOO passes reproduces the
    §3.3 observation: on a statically-scheduled machine the static
    workload estimates are accurate and graph-partitioning assignments
    are competitive — the gap only opens on the dynamic machine. *)

open Clusteer_isa

type mode =
  | Unified  (** cluster chosen during scheduling ([21]) *)
  | Fixed of (Clusteer_ddg.Ddg.t -> int array)
      (** pre-computed assignment, e.g. RHOP or the VC partition *)

type summary = {
  regions : int;
  ops : int;
  cycles : int;  (** summed schedule makespans *)
  moves : int;
  static_ipc : float;  (** ops / cycles *)
}

val run :
  Machine.t ->
  program:Program.t ->
  likely:(int -> int option) ->
  region_uops:int ->
  mode ->
  summary
(** Schedule every region of at most [region_uops] static micro-ops
    under [mode] and sum the results. *)
