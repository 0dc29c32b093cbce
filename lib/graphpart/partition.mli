(** Partition assignments and their quality metrics. *)

type t = int array
(** [t.(node)] is the part (cluster) index. *)

val parts : t -> int
(** Number of parts = 1 + maximum part index (0 for the empty array). *)

val edge_cut : Wgraph.t -> t -> float
(** Total weight of edges whose endpoints lie in different parts — the
    communication cost proxy. *)

val part_weights : Wgraph.t -> t -> k:int -> float array
(** Summed node weight per part, nodes ascending. *)

val weigh_into : Wgraph.t -> t -> float array -> unit
(** {!part_weights} into the given array (of length [k]), which is
    zeroed first. Reads the first [node_count] entries of the
    partition, so it may be longer. *)

val imbalance : Wgraph.t -> t -> k:int -> float
(** [max part weight / ideal part weight]; 1.0 is perfect balance.
    Returns 1.0 for graphs of zero total weight. *)

val validate : t -> k:int -> unit
(** All assignments within [\[0, k)]. *)
