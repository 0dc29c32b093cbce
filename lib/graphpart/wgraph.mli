(** Weighted undirected graphs for multilevel partitioning.

    Nodes carry weights (estimated resource usage of the operations
    they represent); edges carry weights (the cost of cutting the
    dependence, i.e. of an inter-cluster communication). Parallel
    edges are merged by summing their weights at construction.

    {2 Layout}

    Compressed sparse rows: the neighbours of node [v] are
    [adj.(off.(v)) .. adj.(off.(v + 1) - 1)], with the merged weight of
    each at the same index of [wgt] (a flat, unboxed float array). Each
    undirected edge appears once in each endpoint's row.

    {2 Neighbour order}

    A row's order is a contract, not an implementation detail. It is
    the order a standard-library hash table keyed by the pair
    [(min a b, max a b)] used to give, which is what the partitioner's
    results were defined with:
    - rows list neighbours by {e descending} bucket, the bucket of an
      edge being OCaml's generic hash of its pair ([caml_hash] with the
      standard hash tables' parameters 10, 100 and seed 0)
      [land (nb - 1)], where [nb] is the smallest power of two at least
      [max 16 m] and [m] the number of input edges, parallel ones
      included;
    - within one bucket, by ascending first occurrence in the input;
    - a merged weight is the sum of its parallel edges' weights in
      input order, starting from [0.0].

    The partitioner depends on it: {!Coarsen.step} matches each node
    with the {e first} heaviest eligible neighbour in row order,
    {!Refine} sums cut weights in row order (float addition is not
    associative), and the next coarse level's edge list is built in
    {!fold_edges} order. Reordering rows changes RHOP's assignments. *)

type t = private {
  nv : int;
  vwgt : float array;  (** node weights, length [nv] *)
  off : int array;  (** row offsets, length [nv + 1] *)
  adj : int array;  (** neighbour of each row entry *)
  wgt : float array;  (** merged edge weight of each row entry *)
}

type scratch
(** Merge tables {!of_edges} reuses from call to call, grown on demand.
    One per compile or partitioning call, never shared between
    domains. *)

val scratch : unit -> scratch

val of_edges :
  scratch ->
  nv:int ->
  vwgt:float array ->
  len:int ->
  src:int array ->
  dst:int array ->
  weight:float array ->
  t
(** Edge [i < len] joins [src.(i)] and [dst.(i)] with weight
    [weight.(i)]; entries from [len] on are ignored, so the edge arrays
    can be scratch too. [vwgt] must have length [nv]; edge endpoints
    must be distinct and in range; edge weights non-negative; a
    violation raises [Invalid_argument] with the message {!create}
    gives. Allocates only the graph's own arrays (plus scratch growth),
    nothing per edge. The graph keeps [vwgt] itself, not a copy. *)

val create : nv:int -> vwgt:float array -> edges:(int * int * float) list -> t
(** {!of_edges} over a list of [(src, dst, weight)]. *)

val node_count : t -> int
val node_weight : t -> int -> float
val total_weight : t -> float

val edge_weight : t -> int -> int -> float
(** 0 when not adjacent. *)

val fold_edges : (int -> int -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** Each undirected edge visited once, with [src < dst]: nodes
    ascending, each row in order. *)

val degree : t -> int -> int
