(** Reproduction of every table and figure in the paper's evaluation
    (§5) plus the §2.1 worked example. See DESIGN.md's per-experiment
    index and EXPERIMENTS.md for paper-vs-measured numbers.

    The heavy entry points ({!run_2cluster}, {!run_4cluster}) sweep the
    whole SPEC suite once; the [figureN_of] derivations then slice the
    same results, so Figures 5 and 6 share one sweep as in the paper. *)

open Clusteer_uarch
open Clusteer_workloads

type suite_run = {
  machine : Config.t;
  uops : int;
  results : (Profile.t * Runner.point_result list) list;
}

val run_2cluster :
  ?uops:int ->
  ?profiles:Profile.t list ->
  ?progress:(string -> unit) ->
  ?domains:int ->
  ?profiled:bool ->
  unit ->
  suite_run
(** The Figure 5/6 sweep: 2-cluster machine, configurations OP /
    one-cluster / OB / RHOP / VC(2). Default 20k micro-ops per point
    over the full 40-point suite. [profiled] attaches a per-shard
    pipeline self-profiler so the merged registry carries
    [profile.engine.*.ns] phase timings (see
    {!Clusteer_obs.Profile}). *)

val run_4cluster :
  ?uops:int ->
  ?profiles:Profile.t list ->
  ?progress:(string -> unit) ->
  ?domains:int ->
  ?profiled:bool ->
  unit ->
  suite_run
(** The Figure 7 sweep: 4-cluster machine, OP / OB / RHOP / VC(4→4) /
    VC(2→4). Both sweeps shard over individual simulation points with
    {!Runner.run_grouped} (per-shard counter registries, deterministic
    ordered merge); [domains] defaults to
    {!Clusteer_util.Parallel.default_domains} and the output is
    order-deterministic — [domains:1] and [domains:N] produce
    identical results. *)

(** {1 Figure 5 — 2-cluster slowdowns vs OP} *)

type slowdown_row = {
  bench : string;
  suite : Profile.suite;
  slowdowns : (string * float) list;  (** config -> % slowdown vs OP *)
}

type slowdown_figure = {
  rows : slowdown_row list;
  int_avg : (string * float) list;
  fp_avg : (string * float) list;
  cpu_avg : (string * float) list;
}

val figure5_of : suite_run -> slowdown_figure
val print_slowdown_figure : title:string -> slowdown_figure -> unit

(** {1 Figure 6 — copy / balance trade-off scatters} *)

type scatter_point = {
  trace : string;  (** "164.gzip-1/2" = benchmark/phase *)
  speedup : float;  (** VC speedup over the other scheme, % *)
  copy_reduction : float;  (** VC copy reduction vs the other scheme, % *)
  balance_improvement : float;  (** VC allocation-stall reduction, % *)
}

type scatter_figure = {
  vs_ob : scatter_point list;  (** Fig. 6 (a.1)/(b.1) *)
  vs_rhop : scatter_point list;  (** Fig. 6 (a.2)/(b.2) *)
  vs_op : scatter_point list;  (** Fig. 6 (a.3)/(b.3) *)
}

val figure6_of : suite_run -> scatter_figure
val print_scatter_summary : scatter_figure -> unit

val print_scatter_plots : scatter_figure -> unit
(** ASCII renderings of the six Figure 6 panels (copy reduction and
    balance improvement vs speedup, against OB, RHOP and OP). *)

(** {1 Figure 7 — 4-cluster scalability} *)

val figure7_of : suite_run -> slowdown_figure

val copy_inflation : suite_run -> float
(** §5.4: percentage of extra copies VC(4→4) generates over VC(2→4),
    suite-averaged (paper: ~28%). *)

(** {1 Tables} *)

val print_table1 : unit -> unit
(** Steering-complexity comparison. *)

val print_table2 : clusters:int -> unit
(** Architectural parameters. *)

val print_table3 : unit -> unit
(** The five configurations. *)

(** {1 §2.1 worked example} *)

type sec21 = {
  sequential_copies : int;
  parallel_copies : int;
  sequential_placement : int list;
  parallel_placement : int list;
}

val section21_example : unit -> sec21
(** Replays the I1/I2/I3 example with both the sequential and the
    parallel (rename-style) steering implementation. The paper counts
    the two extra copies of the parallel scheme; both schemes share
    one initial copy of R1. *)

val print_section21 : sec21 -> unit

(** {1 CSV export} *)

val export_slowdowns : path:string -> slowdown_figure -> unit
