(** The runtime steering interface.

    The engine consults a policy once per micro-op at the decode/
    rename/steer stage, in program order (sequential steering — the
    engine gives each decision the up-to-date machine state, which is
    the expensive hardware behaviour hardware-only schemes must pay
    for and the hybrid scheme avoids needing). The [view] exposes
    exactly the information the paper's schemes use:

    - {b workload balance counters} — in-flight micro-ops per cluster;
    - {b dependence check} — per-source value location masks, read from
      the renaming table (used by OP; unused by the hybrid);
    - {b issue-queue occupancy} — free slots per cluster/queue (used by
      occupancy-aware stalling);
    - {b compiler annotations} — the {!Clusteer_isa.Annot.t} side
      channel (used by static and hybrid schemes).

    A micro-op whose dispatch blocks is consulted again on each cycle
    until it goes through, as the hardware would. While the machine
    stays quiet (nothing fires, commits, issues or is fetched), every
    such consult sees the same view, so the engine consults a policy
    once per blocked micro-op per quiet stretch and charges the rest in
    bulk through [repeat] (see {!t}).

    Policy implementations live in [clusteer_steer]; the engine only
    knows this record type. *)

open Clusteer_isa

type decision =
  | Dispatch_to of int  (** steer to this physical cluster *)
  | Stall  (** stall the front-end this cycle (stall-over-steer) *)

val max_clusters : int
(** Cluster locations are int bitmasks ({!Clusteer_util.Bitset}), so no
    machine has more clusters than this. Steering scratch sized for it
    never needs to grow. *)

val dispatch_to : int -> decision
(** [dispatch_to c] is [Dispatch_to c], shared rather than allocated
    for every cluster index a machine can have: the steering hot path
    returns it without allocating. *)

type view = {
  clusters : int;
  cycle : unit -> int;
  inflight : int array;
      (** per-cluster in-flight count (dispatched, not yet completed),
          indexed by cluster. The engine's own counters, live: the
          array is read in place, so it always holds the current counts
          and never needs copying, and a policy must only read it. *)
  queue_free : int -> Opcode.queue -> int;
      (** free slots of a queue in a cluster *)
  src_locations_into : Uop.t -> Clusteer_util.Bitset.t array -> int;
      (** per source operand, the clusters where its value is (or will
          be) present — the rename-table location logic. Fills the
          caller's scratch buffer (which must hold at least as many
          slots as the micro-op has sources) and returns the source
          count, so the per-uop hot path allocates nothing. *)
  reg_location : Reg.t -> Clusteer_util.Bitset.t;
      (** same lookup for an arbitrary architectural register *)
  annot : Annot.t;
}

type t = {
  name : string;
  decide : view -> Uop.t -> decision;
      (** called with the static micro-op being steered; everything a
          policy reads about it (opcode, operands, its id into the
          annotation) is static *)
  repeat : (view -> Uop.t -> int -> bool) option;
      (** [repeat view u k] stands for [k] more calls of [decide view u]
          on the same, unchanged view, right after a call that returned
          some decision [d]. If all [k] would return [d], it charges
          them to the policy's state and counters exactly as the [k]
          calls would and returns [true]. If any of them could answer
          differently, it changes nothing and returns [false]; the
          engine then consults on every cycle. [None] means the engine
          always consults on every cycle. A wrapper that must see every
          consult (a recorder, say) sets [None]. *)
  uses_vote_unit : bool;
      (** does it combine per-source locations with occupancy in a
          voting step? *)
}
