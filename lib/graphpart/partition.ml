type t = int array

let parts t = Array.fold_left (fun acc p -> max acc (p + 1)) 0 t

let edge_cut g t =
  Wgraph.fold_edges
    (fun a b w acc -> if t.(a) <> t.(b) then acc +. w else acc)
    g 0.0

let weigh_into (g : Wgraph.t) t weights =
  Array.fill weights 0 (Array.length weights) 0.0;
  for node = 0 to g.Wgraph.nv - 1 do
    weights.(t.(node)) <- weights.(t.(node)) +. g.Wgraph.vwgt.(node)
  done

let part_weights g t ~k =
  let weights = Array.make k 0.0 in
  weigh_into g t weights;
  weights

let imbalance g t ~k =
  let weights = part_weights g t ~k in
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then 1.0
  else
    let ideal = total /. float_of_int k in
    Array.fold_left Float.max 0.0 weights /. ideal

let validate t ~k =
  Array.iteri
    (fun i p ->
      if p < 0 || p >= k then
        invalid_arg (Printf.sprintf "Partition.validate: node %d in part %d" i p))
    t
