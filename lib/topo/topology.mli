(** Inter-cluster interconnect topologies.

    The paper's machine (Table 2) connects its clusters with dedicated
    1-cycle point-to-point links; that remains the default everywhere.
    This module generalizes the fabric into a small closed set of
    shapes with deterministic hop-count and latency queries so the
    engine's copy path, the hardware mapper, and the auto-tuner can
    all reason about distance instead of assuming a uniform link:

    - {b p2p}: a dedicated bi-directional link per cluster pair
      (the paper's baseline; every cross-cluster distance is 1 hop).
    - {b bus}: one shared medium; 1 hop, but a single transfer per
      cycle machine-wide.
    - {b ring}: clusters on a cycle; a copy travels the shorter way
      around, one [link_latency] per hop.
    - {b mesh}: a [cols]x[rows] 2D grid with deterministic XY routing
      (x first, then y); distance is the Manhattan distance.
    - {b hier}: two-level clustering — [groups] groups of
      [group_size] clusters, point-to-point inside a group, and a
      shared uplink between groups with its own (slower)
      [uplink_latency] and [uplink_bandwidth] channels. The shape of
      a PULP-style cluster subsystem.

    All queries are pure and total for clusters in
    [0 .. clusters - 1]; the distance function is a metric (zero on
    the diagonal, symmetric, triangle inequality) — property-tested
    in [test/test_topo.ml]. *)

type kind =
  | P2p
  | Bus
  | Ring
  | Mesh of { cols : int; rows : int }
  | Hier of { groups : int; group_size : int }

type t = {
  kind : kind;
  clusters : int;  (** total physical clusters; for mesh [cols*rows],
                       for hier [groups*group_size] *)
  link_latency : int;
      (** cycles per ordinary hop (paper baseline: 1) *)
  uplink_latency : int;
      (** hier only: cycles to cross the shared inter-group uplink
          (default 4); ignored by the flat topologies *)
  uplink_bandwidth : int;
      (** hier only: independent uplink channels, i.e. cross-group
          transfers that can start on the same cycle (default 1) *)
}

(** {1 Constructors} — all validate and raise [Invalid_argument] on a
    malformed shape. *)

val p2p : ?link_latency:int -> clusters:int -> unit -> t
val bus : ?link_latency:int -> clusters:int -> unit -> t
val ring : ?link_latency:int -> clusters:int -> unit -> t
val mesh : ?link_latency:int -> cols:int -> rows:int -> unit -> t

val hier :
  ?link_latency:int ->
  ?uplink_latency:int ->
  ?uplink_bandwidth:int ->
  groups:int ->
  group_size:int ->
  unit ->
  t

val name : t -> string
(** Canonical name: ["p2p"], ["bus"], ["ring"], ["mesh4x2"],
    ["hier2x4"], ... Fixed-size shapes encode their dimensions. *)

val max_clusters : int
(** Largest cluster count a machine may have (16); {!of_name} and
    [Clusteer_uarch.Config.validate] enforce it. *)

val of_name : ?clusters:int -> string -> (t, string) result
(** Parse a canonical name. ["p2p"], ["bus"] and ["ring"] are
    parametric and take their size from [clusters] (default 4);
    ["mesh<C>x<R>"] and ["hier<G>x<S>"] carry their own size and
    ignore [clusters]. Latencies take their defaults. A size outside
    [1 .. max_clusters] is an [Error], reported before anything is
    built. *)

val builtin_names : string list
(** The names [csteer topo list] advertises:
    [p2p; bus; ring; mesh4x2; hier2x4]. *)

val is_uniform : t -> bool
(** [true] when every cross-cluster distance is one hop (p2p, bus) —
    the steering layer keeps its seed behavior exactly on uniform
    fabrics and only applies distance tie-breaks on the others. *)

(** {1 Queries} *)

val distance : t -> int -> int -> int
(** Hop count of the deterministic route between two clusters; [0] on
    the diagonal. Hier counts egress + uplink + ingress as 3 hops. *)

val latency : t -> int -> int -> int
(** Total copy travel time in cycles along the route; [0] on the
    diagonal. Flat shapes: [distance * link_latency]; hier cross-group
    routes pay [2*link_latency + uplink_latency]. *)

val distance_matrix : t -> int array array
(** Fresh [clusters]x[clusters] matrix of {!distance} — precompute it
    once where the query sits on a hot path. *)

val latency_matrix : t -> int array array
(** Fresh [clusters]x[clusters] matrix of {!latency} — the static cost
    model weights predicted copies with it. *)

val diameter : t -> int
(** Largest pairwise {!distance}. *)

val mean_distance : t -> float
(** Mean {!distance} over ordered cross-cluster pairs; [0.] for a
    single cluster. *)

val validate : t -> (unit, string) result
(** Structural checks: positive sizes and latencies, shape consistent
    with [clusters], positive uplink bandwidth. *)

val equal : t -> t -> bool
val describe : t -> string

(** {1 JSON round trip} *)

val to_json : t -> Clusteer_obs.Json.t
val of_json : Clusteer_obs.Json.t -> (t, string) result
