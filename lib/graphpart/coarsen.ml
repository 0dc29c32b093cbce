module Scratch = Clusteer_util.Scratch

type level = { graph : Wgraph.t; map : int array }

type scratch = {
  mutable order : int array;
  mutable mate : int array;
  mutable src : int array;
  mutable dst : int array;
  mutable weight : float array;
  merge : Wgraph.scratch;
}

let scratch () =
  {
    order = [||];
    mate = [||];
    src = [||];
    dst = [||];
    weight = [||];
    merge = Wgraph.scratch ();
  }

let step ?scratch:s ?(seed = 1) ?(max_node_weight = infinity) (g : Wgraph.t) =
  let s = match s with Some s -> s | None -> scratch () in
  let n = g.Wgraph.nv in
  let vwgt = g.Wgraph.vwgt and off = g.Wgraph.off in
  let adj = g.Wgraph.adj and wgt = g.Wgraph.wgt in
  s.order <- Scratch.fit s.order n 0;
  s.mate <- Scratch.fit s.mate n 0;
  let order = s.order and mate = s.mate in
  for v = 0 to n - 1 do
    order.(v) <- v;
    mate.(v) <- -1
  done;
  Clusteer_util.Rng.shuffle ~len:n (Clusteer_util.Rng.create seed) order;
  for i = 0 to n - 1 do
    let v = order.(i) in
    if mate.(v) = -1 then begin
      (* The first heaviest eligible neighbour in row order. *)
      let best = ref (-1) and best_w = ref neg_infinity in
      for k = off.(v) to off.(v + 1) - 1 do
        let u = adj.(k) in
        if
          mate.(u) = -1 && u <> v && wgt.(k) > !best_w
          && vwgt.(v) +. vwgt.(u) <= max_node_weight
        then begin
          best := u;
          best_w := wgt.(k)
        end
      done;
      if !best >= 0 then begin
        mate.(v) <- !best;
        mate.(!best) <- v
      end
    end
  done;
  (* Assign coarse ids: a matched pair shares one id. *)
  let map = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if map.(v) = -1 then begin
      map.(v) <- !next;
      if mate.(v) >= 0 then map.(mate.(v)) <- !next;
      incr next
    end
  done;
  let nc = !next in
  let cvwgt = Array.make nc 0.0 in
  for v = 0 to n - 1 do
    cvwgt.(map.(v)) <- cvwgt.(map.(v)) +. vwgt.(v)
  done;
  (* The coarse edge list is the fine graph's edges in reverse
     [Wgraph.fold_edges] order, less those inside a matched pair. *)
  let m = ref 0 in
  for a = 0 to n - 1 do
    for k = off.(a) to off.(a + 1) - 1 do
      if a < adj.(k) && map.(a) <> map.(adj.(k)) then incr m
    done
  done;
  let len = !m in
  s.src <- Scratch.fit s.src len 0;
  s.dst <- Scratch.fit s.dst len 0;
  s.weight <- Scratch.fit s.weight len 0.0;
  let src = s.src and dst = s.dst and weight = s.weight in
  for a = 0 to n - 1 do
    for k = off.(a) to off.(a + 1) - 1 do
      if a < adj.(k) && map.(a) <> map.(adj.(k)) then begin
        decr m;
        src.(!m) <- map.(a);
        dst.(!m) <- map.(adj.(k));
        weight.(!m) <- wgt.(k)
      end
    done
  done;
  let graph = Wgraph.of_edges s.merge ~nv:nc ~vwgt:cvwgt ~len ~src ~dst ~weight in
  { graph; map }

let project level part =
  let map = level.map in
  if Array.length part < Array.length map then
    invalid_arg "Coarsen.project: partition shorter than the fine graph";
  for v = Array.length map - 1 downto 0 do
    part.(v) <- part.(map.(v))
  done
