(** Pass-based driver over the static checks.

    A {!target} bundles one program + annotation under one machine
    configuration; {!run} applies a selection of passes and returns the
    merged, sorted findings. This is what [csteer check], the serve
    admission hook and the test suite all drive. *)

open Clusteer_isa
module Compiler = Clusteer_compiler
module Uarch = Clusteer_uarch

type target = {
  label : string;  (** e.g. ["gzip/vc2"]; used in reports *)
  program : Program.t;
  likely : int -> int option;
  annot : Annot.t;
  config : Uarch.Config.t;
  region_uops : int;  (** region budget the annotation was compiled with *)
  max_chain : int;
      (** chain-length cap the annotation was compiled with (0 =
          unlimited); see {!Vc_check.check} *)
  claimed : Compiler.Diagnostics.t option;
      (** compiler-reported partition summary to cross-check (VC008) *)
  critical : bool array option;  (** criticality hints to verify (PL005) *)
  slack_threshold : int;  (** the hints' criticality cut-off *)
  events : Dyn_check.event list option;
      (** recorded steering decisions to replay (DYN0xx) *)
}

val target :
  ?label:string ->
  region_uops:int ->
  max_chain:int ->
  ?claimed:Compiler.Diagnostics.t ->
  ?critical:bool array ->
  slack_threshold:int ->
  ?events:Dyn_check.event list ->
  program:Program.t ->
  likely:(int -> int option) ->
  annot:Annot.t ->
  config:Uarch.Config.t ->
  unit ->
  target
(** Build a target; [label] defaults to the program name. The three
    knobs are the [Clusteer.Configuration.params] the annotation and
    the hints were compiled with. *)

type pass = { name : string; applies : target -> bool; run : target -> Diag.t list }

val passes : pass list
(** The registry, in canonical order: ["ir"], ["liv"], ["vc"],
    ["place"], ["cost"], ["dyn"], ["topo"], ["meta"]. A pass that does
    not apply to a target (e.g. ["vc"] on a static annotation) is
    skipped silently by {!run}. *)

val code_table : (string * string list) list
(** Every stable diagnostic code, grouped by the pass (or shared
    vocabulary: ["compiler"] for CP0xx, ["drift"] for CM1xx) that owns
    it. The ["meta"] pass checks this table for duplicates; the test
    suite additionally checks it against the ARCHITECTURE.md diagnostic
    table. *)

val select : string list -> (pass list, string) result
(** Resolve pass names; [Error] names the first unknown one. The empty
    list selects every pass. *)

val run : ?passes:pass list -> target -> Diag.t list
(** Apply the applicable passes and sort findings with
    {!Clusteer_isa.Diag.compare}. *)

val failed : strict:bool -> Diag.t list -> bool
(** Errors always fail; with [strict], warnings fail too. Info never
    fails. *)

val report_json : label:string -> Diag.t list -> Clusteer_obs.Json.t
(** [{"target":...,"errors":n,"warnings":n,"infos":n,
    "diagnostics":[...]}]. *)
