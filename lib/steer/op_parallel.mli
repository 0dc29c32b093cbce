(** The §2.1 strawman: dependence-based steering implemented "as
    register renaming", i.e. all micro-ops of a decode bundle vote in
    parallel against the locations captured at the start of the cycle,
    without seeing where earlier micro-ops of the same bundle just
    went.

    On the paper's three-instruction example this produces two copies
    where the sequential implementation produces zero; the ablation
    bench quantifies the same gap on full traces. *)

val make :
  stall_threshold:int -> imbalance_limit:int -> Clusteer_uarch.Policy.t
(** The knobs are {!Op.make}'s. *)
