(** Virtual-cluster partition invariants (paper §4.2).

    The hybrid scheme's contract is that chains are maximal program-order
    runs of same-VC micro-ops within a region and that exactly the first
    micro-op of each chain carries the leader mark — that is what lets
    the hardware remap a VC only at chain boundaries. These checks
    re-derive chain structure independently from the annotation and the
    region decomposition and compare.

    Codes:
    - [VC001] — ragged annotation arrays (lengths disagree with the
      program's uop count). Reported alone: later checks need aligned
      arrays to be meaningful.
    - [VC002] — a vc id outside [\[0, virtual_clusters)].
    - [VC003] — a micro-op left unassigned by a VC scheme.
    - [VC004] — a leader mark on a micro-op with no VC.
    - [VC005] — a chain's first micro-op is missing the leader mark.
    - [VC006] — a leader mark in the middle of a chain.
    - [VC007] (info) — a virtual cluster with no micro-ops.
    - [VC008] — a claimed partition summary disagrees with the
      independently recomputed one (chain count, cut cost, population).
    - [VC009] (info) — a VC's micro-ops within one region do not form a
      connected DDG subgraph (the chain mechanism still works, but such
      a VC groups unrelated code).
    - [VC010] (warning) — more virtual clusters than static micro-ops:
      a partition with more parts than elements can never populate every
      VC, so the request almost certainly mis-sized [vcN]. *)

open Clusteer_isa
module Compiler = Clusteer_compiler

val codes : string list

val check :
  program:Program.t ->
  likely:(int -> int option) ->
  annot:Annot.t ->
  region_uops:int ->
  max_chain:int ->
  Diag.t list
(** Structural checks VC001–VC007, VC009 and VC010. The annotation
    must be a virtual-cluster one ([virtual_clusters > 0]).

    [region_uops] and [max_chain] (micro-ops, 0 = unlimited) must
    match the region budget and chain-length cap the annotation was
    compiled with: the VC005/VC006 leader recomputation goes through
    the same
    {!Clusteer_compiler.Chains.iter_chain_starts} iterator as the
    compiler, so a capped annotation checked with the wrong cap is
    reported as VC005/VC006 drift. *)

val check_summary :
  program:Program.t ->
  likely:(int -> int option) ->
  annot:Annot.t ->
  claimed:Compiler.Diagnostics.t ->
  region_uops:int ->
  max_chain:int ->
  Diag.t list
(** [VC008]: recompute the partition summary from scratch and flag any
    field where [claimed] disagrees. *)
