(** Backward liveness / def-use analysis over the block CFG.

    An instance of {!Fixpoint} with the classic gen/kill bitvector
    lattice over encoded architectural registers
    ({!Clusteer_isa.Reg.encode}): a register is live at a point when
    some CFG path from that point reads it before writing it. On top of
    the fixed point the module derives the two quantities the analyzer
    reports on:

    - {b dead definitions} — a micro-op writes a register no path ever
      reads again (the value is unobservable);
    - {b live-range pressure} — the peak number of simultaneously live
      registers per class, the static lower bound on how many physical
      registers a renaming scheme needs.

    Codes (emitted by {!check}):
    - [LIV001] (info) — dead definition.
    - [LIV002] (info) — per-program peak pressure summary.
    - [LIV003] (warning) — peak pressure exceeds the physical register
      file of the machine being checked; renaming will stall on free
      physical registers no matter how uops are steered. *)

open Clusteer_isa

type t = {
  nregs : int;  (** registers per class; bitvectors span [2 * nregs] *)
  live_in : int array array;  (** block -> bitvector of encoded regs *)
  live_out : int array array;
  dead_defs : (int * Reg.t) list;
      (** (static uop id, destination) pairs, program order *)
  peak_int : int;  (** peak simultaneously live INT registers *)
  peak_fp : int;
  iterations : int;  (** solver transfer applications *)
}

val codes : string list

val analyze : Program.t -> t

val check : ?int_budget:int -> ?fp_budget:int -> Program.t -> Diag.t list
(** Run {!analyze} and render findings. The budgets are the physical
    register-file sizes used for LIV003 (defaults: no bound). At most
    [8] individual LIV001 findings are located; further dead
    definitions fold into one summarizing info so a pathological
    program cannot flood a report. *)
