(** Shared structured diagnostics.

    One finding from a static check: a stable code (["IR003"],
    ["VC005"], ...), a severity, a human message and an optional
    program location. The compiler's partition summaries and the
    [lib/analysis] verifier both speak this type, so compiler warnings
    and analyzer findings print and serialize identically — and the
    [csteer check] driver can sort, count and JSON-encode them without
    knowing which pass produced what.

    Codes are grouped by namespace: [IR0xx] IR well-formedness,
    [VC0xx] virtual-cluster partition invariants, [PL0xx] static
    placement and criticality hints, [DYN0xx] dynamic steering-trace
    invariants, [CP0xx] compiler partition-quality findings. *)

type severity = Error | Warning | Info

type location = {
  uop : int;  (** static micro-op id, [-1] when not uop-scoped *)
  block : int;  (** block id, [-1] when unknown *)
  region : int;  (** compilation-region id, [-1] when unknown *)
}

type t = {
  code : string;  (** stable identifier, e.g. ["VC005"] *)
  severity : severity;
  message : string;
  loc : location;
}

val make :
  ?uop:int -> ?block:int -> ?region:int -> severity -> code:string ->
  string -> t

val errorf :
  ?uop:int -> ?block:int -> ?region:int -> code:string ->
  ('a, unit, string, t) format4 -> 'a

val warnf :
  ?uop:int -> ?block:int -> ?region:int -> code:string ->
  ('a, unit, string, t) format4 -> 'a

val infof :
  ?uop:int -> ?block:int -> ?region:int -> code:string ->
  ('a, unit, string, t) format4 -> 'a

val severity_name : severity -> string
(** ["error"] / ["warning"] / ["info"]. *)

val severity_of_name : string -> severity option

val is_error : t -> bool

val count : severity -> t list -> int
(** Number of findings of exactly that severity. *)

val compare : t -> t -> int
(** Sort key: severity (errors first), then code, then location. *)

val pp : Format.formatter -> t -> unit
(** One line: [error[VC005] uop 17 (block 3): message]. *)

val to_json : t -> Clusteer_obs.Json.t
(** [{"severity":...,"code":...,"message":...}] plus [uop]/[block]/
    [region] fields when located. *)

val of_json : Clusteer_obs.Json.t -> (t, string) result
(** Inverse of {!to_json}; unknown severities and missing fields are
    errors. *)
