(** Structured pipeline events.

    The taxonomy mirrors the quantities the paper's evaluation argues
    from: where the steering logic sent each micro-op (and what the
    cluster occupancies looked like at that moment), which copies and
    link transfers the placement cost, why allocation stalled, and the
    retirement/redirect stream that anchors everything in time.

    Events carry only plain integers so the event layer has no
    dependency on the microarchitecture types; the engine translates
    its internal state when a sink is installed and constructs nothing
    otherwise. *)

type stall_reason =
  | Iq_full  (** target issue queue out of slots *)
  | Copyq_full  (** a source cluster's copy queue out of slots *)
  | Rob_full
  | Lsq_full
  | Regfile  (** destination register file exhausted *)
  | Policy  (** the steering policy chose to stall *)
  | Empty  (** front-end starved (mispredict redirect, trace-cache miss) *)

val stall_reason_count : int
(** Number of stall reasons; indexes from {!stall_reason_index} are
    dense in [0, stall_reason_count). *)

val stall_reason_index : stall_reason -> int
val stall_reason_name : stall_reason -> string
val stall_names : string array
(** Reason names in index order. *)

type t =
  | Steer of {
      cycle : int;
      static_id : int;  (** static micro-op id of the steered uop *)
      cluster : int;  (** chosen cluster *)
      inflight : int array;  (** per-cluster occupancy at decision time *)
    }
  | Dispatch of {
      cycle : int;
      iseq : int;  (** global dynamic sequence number *)
      static_id : int;
      cluster : int;
      queue : string;  (** "int", "fp" or "copy" *)
    }
  | Copy_insert of {
      cycle : int;
      tag : int;
          (** value tag being replicated: an entry of the engine's fixed
              tag pool, which reuses a tag once its value is dead *)
      from_cluster : int;
      to_cluster : int;
      copyq_depth : int;  (** producer's copy-queue depth after insertion *)
    }
  | Link_transfer of {
      cycle : int;
      from_cluster : int;
      to_cluster : int;
      latency : int;
    }
  | Stall of { cycle : int; reason : stall_reason }
  | Commit of { cycle : int; iseq : int; cluster : int }
  | Redirect of { cycle : int; resume : int }
      (** mispredicted branch resolved; fetch resumes at [resume] *)

val cycle : t -> int
val name : t -> string
(** Short kind name ("steer", "stall", ...). *)

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
