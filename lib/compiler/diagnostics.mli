(** Compiler-output diagnostics.

    "The effectiveness of our proposed hardware-software mechanism
    largely depends on the selection of chains" (paper §4.2): these
    measurements expose that selection — chain count and lengths, VC
    population balance, and how many dependence edges cross VCs (the
    copies a static VC→cluster mapping would imply). Used by
    [csteer compile] and the test suite. *)

open Clusteer_isa

type t = {
  static_uops : int;
  regions : int;
  chains : int;
  mean_chain_length : float;
  max_chain_length : int;
  vc_population : int array;  (** micro-ops per virtual cluster *)
  cross_vc_edges : int;
      (** region-DDG dependence edges whose endpoints sit in different
          virtual clusters *)
  intra_vc_edges : int;
}

val codes : string list
(** The stable CP0xx codes {!findings} can emit — registered in the
    analyzer's [Checker.code_table] self-check. *)

val of_annot :
  program:Program.t ->
  likely:(int -> int option) ->
  annot:Annot.t ->
  region_uops:int ->
  max_chain:int ->
  t
(** Analyse a VC annotation compiled over regions of at most
    [region_uops] static micro-ops with chain-length cap [max_chain]
    (see {!Chains}). Raises [Invalid_argument] when the annotation has
    no virtual clusters. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Clusteer_obs.Json.t
(** All summary fields, machine-readable; used by [csteer compile
    --json] and stored alongside analyzer reports. *)

val findings : t -> Diag.t list
(** Partition-quality findings in the shared diagnostic vocabulary
    (all [Info] — quality, unlike well-formedness, is advisory):
    - [CP001] — a virtual cluster holds no micro-ops;
    - [CP002] — VC population imbalance beyond 4x;
    - [CP003] — more dependence edges cross VCs than stay inside
      ({> 50%} cut: every crossing is a potential inter-cluster copy);
    - [CP004] — mean chain length below 2 (chains too short for the
      leader mechanism to amortize remap decisions). *)
