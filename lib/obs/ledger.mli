(** Run ledger: every experiment and serve batch recorded as an
    on-disk artifact.

    A ledger directory holds one [run-NNNNNN.json] file per run (full
    entry: config, counter/histogram snapshot with percentiles, GC
    deltas, wall time, outcome) plus an append-only [index.jsonl] of
    one summary line per run. Run files are written tmp-then-rename,
    and the index line only after the run file is durable, so a crash
    at any point leaves either a complete entry or no entry. Loading
    skips torn index lines and recovers the next run id from both the
    index and the run files, so ids are never reused.

    Filesystem failures surface as [Sys_error] — the CLI's standard
    one-line-diagnostic-and-exit-1 path. *)

type t

(** {1 GC accounting}

    Allocation deltas captured around each run: the zero-allocation
    steering hot path (PR 4) is held to its budget by the
    [engine_minor_words_per_uop] figure recorded in every entry. *)

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  minor_collections : int;
}

val gc_now : unit -> gc_delta
(** Snapshot of [Gc.quick_stat] in delta form. *)

val gc_sub : gc_delta -> gc_delta -> gc_delta
(** [gc_sub after before] is the allocation between two snapshots. *)

val minor_words_per_uop : gc_delta -> uops:int -> float
(** Minor-heap words per committed uop; 0 when [uops = 0]. *)

val gc_json : ?uops:int -> gc_delta -> Json.t
(** The entry's ["gc"] object, including
    ["engine_minor_words_per_uop"]. *)

(** {1 Ledger} *)

type summary = {
  id : int;
  kind : string;  (** ["simulate"], ["experiment"], ["serve_batch"] *)
  label : string;
  started : float;  (** Unix time the run began *)
  wall_s : float;
  outcome : string;  (** ["ok"] or an error tag *)
  uops : int;  (** committed uops attributed to the run *)
  minor_words_per_uop : float;
  file : string;  (** run file name relative to the ledger dir *)
}

val create : dir:string -> t
(** Open (creating directories as needed) and load the index. Raises
    [Sys_error] when [dir] cannot be created or is not a directory. *)

val dir : t -> string

val append :
  t ->
  kind:string ->
  label:string ->
  ?request_hash:string ->
  ?config:Json.t ->
  started:float ->
  wall_s:float ->
  outcome:string ->
  uops:int ->
  gc:gc_delta ->
  Counters.registry ->
  summary
(** Durably record one run: write its [run-NNNNNN.json] (atomic
    tmp-then-rename), then append the summary line to [index.jsonl].
    The registry snapshot is embedded via {!Counters.to_json}, so
    phase-timing percentiles ride along when a profiler fed it. The
    entry's ["build"] object names the dune profile this program was
    built under and the OCaml version, so that runs of differently
    built programs can be told apart. *)

val list : t -> summary list
(** Summaries in id order. *)

val summary_json : summary -> Json.t
(** One summary as its [index.jsonl] line. *)

val load : t -> int -> Json.t option
(** Full entry for a run id; [None] when absent or unreadable. *)

val prune : t -> keep:int -> int
(** Delete all but the newest [keep] runs (files and index lines; the
    index is rewritten atomically). Returns how many were removed. *)
