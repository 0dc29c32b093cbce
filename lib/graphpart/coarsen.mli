(** Coarsening step of multilevel partitioning: heavy-edge matching.

    Unmatched nodes pair with the unmatched neighbour joined by the
    heaviest edge; each matched pair collapses into one coarse node
    whose weight is the pair's sum. Heavier edges correspond to more
    critical dependences, so the coarsening "tends to group the
    operations on the critical path together" (paper §3.3 on RHOP). *)

type level = {
  graph : Wgraph.t;  (** the coarse graph *)
  map : int array;
      (** fine node -> coarse node. Coarse ids are handed out in
          ascending order of their first fine node, so
          [map.(v) <= v] for every [v]; {!project} relies on it. *)
}

type scratch
(** Matching and edge buffers {!step} reuses from call to call, grown on
    demand. One per compile or partitioning call, never shared between
    domains. *)

val scratch : unit -> scratch

val step :
  ?scratch:scratch -> ?seed:int -> ?max_node_weight:float -> Wgraph.t -> level
(** One round of heavy-edge matching: in a seeded random visit order,
    each unmatched node takes the first heaviest eligible neighbour of
    its row ({!Wgraph}'s neighbour order decides ties). The coarse
    graph's input edges are the fine edges in reverse
    {!Wgraph.fold_edges} order, less those inside a pair. When no edge
    can be matched the coarse graph equals the input (identity map).
    [seed] randomises the visit order (default 1). [max_node_weight]
    (default unlimited) refuses matches whose merged weight would exceed it, keeping
    coarse nodes small enough for a balanced initial partition. *)

val project : level -> Partition.t -> unit
(** [project level part] pulls a partition of the coarse graph back to
    the finer graph in place: on entry [part]'s first
    [node_count level.graph] entries hold the coarse partition, on
    return its first [Array.length level.map] entries hold the fine
    one. Because [map.(v) <= v], the pass from the last fine node down
    reads only entries it has not yet overwritten, so one array serves
    every level of {!Multilevel.partition}. Raises [Invalid_argument]
    when [part] is shorter than the fine graph. *)
