module Scratch = Clusteer_util.Scratch

type t = {
  nv : int;
  vwgt : float array;
  off : int array;
  adj : int array;
  wgt : float array;
}

(* OCaml's generic structural hash; the standard library's hash tables
   call it as [seeded_hash_param 10 100 0]. *)
external seeded_hash_param : int -> int -> int -> 'a -> int = "caml_hash"
[@@noalloc]

(* The bucket count a standard hash table created for [m] entries
   starts with (and, holding at most [m] keys, keeps). *)
let rec buckets_above x m =
  if x >= m || x * 2 > Sys.max_array_length then x else buckets_above (x * 2) m

let buckets_for m = buckets_above 16 m

type scratch = {
  mutable head : int array;
  mutable next : int array;
  mutable first : int array;
  mutable sum : float array;
  mutable fill : int array;
  key : int array;
}

let scratch () =
  {
    head = [||];
    next = [||];
    first = [||];
    sum = [||];
    fill = [||];
    key = [| 0; 0 |];
  }

(* Endpoints of merged edge [e], whose first input edge is [first.(e)].
   Top-level, so building a graph allocates no closures. *)
let lo_of (src : int array) (dst : int array) (first : int array) e =
  let f = first.(e) in
  if src.(f) < dst.(f) then src.(f) else dst.(f)

let hi_of (src : int array) (dst : int array) (first : int array) e =
  let f = first.(e) in
  if src.(f) < dst.(f) then dst.(f) else src.(f)

(* Prepend [u] with merged edge [e]'s weight to row [v], which fills
   from its end. *)
let put (fill : int array) (adj : int array) (wgt : float array)
    (sum : float array) v u e =
  let k = fill.(v) - 1 in
  fill.(v) <- k;
  adj.(k) <- u;
  wgt.(k) <- sum.(e)

let of_edges s ~nv ~vwgt ~len:m ~src ~dst ~weight =
  if Array.length vwgt <> nv then invalid_arg "Wgraph.create: vwgt arity";
  if
    m < 0 || Array.length src < m || Array.length dst < m
    || Array.length weight < m
  then invalid_arg "Wgraph.create: edge arrays shorter than len";
  (* Merge parallel edges, summing in input order, in a flat chained
     table: [head] per bucket, [next] per merged edge, newest first. *)
  let nb = buckets_for m in
  s.head <- Scratch.reset s.head nb (-1);
  s.next <- Scratch.fit s.next m (-1);
  s.first <- Scratch.fit s.first m 0;
  s.sum <- Scratch.fit s.sum m 0.0;
  s.fill <- Scratch.fit s.fill nv 0;
  let head = s.head and next = s.next and first = s.first and sum = s.sum in
  let key = s.key in
  let merged = ref 0 in
  for i = 0 to m - 1 do
    let a = src.(i) and b = dst.(i) and w = weight.(i) in
    if a = b then invalid_arg "Wgraph.create: self loop";
    if a < 0 || a >= nv || b < 0 || b >= nv then
      invalid_arg "Wgraph.create: endpoint out of range";
    if w < 0.0 then invalid_arg "Wgraph.create: negative edge weight";
    let lo = if a < b then a else b and hi = if a < b then b else a in
    (* An int array of two hashes like the pair [(lo, hi)]: same tag,
       same size, same fields, and no allocation per edge. *)
    key.(0) <- lo;
    key.(1) <- hi;
    let bucket = seeded_hash_param 10 100 0 key land (nb - 1) in
    let e = ref head.(bucket) in
    while
      !e >= 0 && not (lo_of src dst first !e = lo && hi_of src dst first !e = hi)
    do
      e := next.(!e)
    done;
    if !e >= 0 then sum.(!e) <- sum.(!e) +. w
    else begin
      let e = !merged in
      incr merged;
      first.(e) <- i;
      sum.(e) <- 0.0 +. w;
      next.(e) <- head.(bucket);
      head.(bucket) <- e
    end
  done;
  (* Rows: visiting buckets in ascending order and each chain newest
     first, fill every row from its end, so a row lists its neighbours
     by descending bucket and, within a bucket, by ascending first
     occurrence in the input. *)
  let off = Array.make (nv + 1) 0 in
  for e = 0 to !merged - 1 do
    let lo = lo_of src dst first e and hi = hi_of src dst first e in
    off.(lo + 1) <- off.(lo + 1) + 1;
    off.(hi + 1) <- off.(hi + 1) + 1
  done;
  for v = 0 to nv - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let fill = s.fill in
  Array.blit off 1 fill 0 nv;
  let adj = Array.make off.(nv) 0 and wgt = Array.make off.(nv) 0.0 in
  for bucket = 0 to nb - 1 do
    let e = ref head.(bucket) in
    while !e >= 0 do
      let lo = lo_of src dst first !e and hi = hi_of src dst first !e in
      put fill adj wgt sum lo hi !e;
      put fill adj wgt sum hi lo !e;
      e := next.(!e)
    done
  done;
  { nv; vwgt; off; adj; wgt }

let create ~nv ~vwgt ~edges =
  let m = List.length edges in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let weight = Array.make m 0.0 in
  List.iteri
    (fun i (a, b, w) ->
      src.(i) <- a;
      dst.(i) <- b;
      weight.(i) <- w)
    edges;
  of_edges (scratch ()) ~nv ~vwgt ~len:m ~src ~dst ~weight

let node_count t = t.nv
let node_weight t i = t.vwgt.(i)

let total_weight t =
  let s = ref 0.0 in
  for i = 0 to t.nv - 1 do
    s := !s +. t.vwgt.(i)
  done;
  !s

let degree t i = t.off.(i + 1) - t.off.(i)

let edge_weight t a b =
  let rec find k =
    if k >= t.off.(a + 1) then 0.0
    else if t.adj.(k) = b then t.wgt.(k)
    else find (k + 1)
  in
  find t.off.(a)

let fold_edges f t init =
  let acc = ref init in
  for a = 0 to t.nv - 1 do
    for k = t.off.(a) to t.off.(a + 1) - 1 do
      let b = t.adj.(k) in
      if a < b then acc := f a b t.wgt.(k) !acc
    done
  done;
  !acc
