(* Nodes by descending weight, each to the currently lightest part. *)
let initial_partition (g : Wgraph.t) ~k =
  let n = g.Wgraph.nv and vwgt = g.Wgraph.vwgt in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare vwgt.(b) vwgt.(a)) order;
  let weights = Array.make k 0.0 in
  let part = Array.make n 0 in
  for i = 0 to n - 1 do
    let v = order.(i) in
    let lightest = ref 0 in
    for p = 1 to k - 1 do
      if weights.(p) < weights.(!lightest) then lightest := p
    done;
    part.(v) <- !lightest;
    weights.(!lightest) <- weights.(!lightest) +. vwgt.(v)
  done;
  part

let partition ?scratch ?(seed = 1) ?(max_imbalance = 1.25) ?(refine_passes = 4)
    g ~k =
  if k <= 0 then invalid_arg "Multilevel.partition: k must be positive";
  if k = 1 then Array.make (Wgraph.node_count g) 0
  else begin
    (* Coarsening phase. Coarse nodes are capped below a part's ideal
       weight so the coarsest graph still admits a balanced split. *)
    let max_node_weight =
      Wgraph.total_weight g /. float_of_int k *. 0.75
    in
    let scratch =
      match scratch with Some s -> s | None -> Coarsen.scratch ()
    in
    let rec coarsen levels g depth =
      if Wgraph.node_count g <= k || depth > 40 then (levels, g)
      else begin
        let level =
          Coarsen.step ~scratch ~seed:(seed + depth) ~max_node_weight g
        in
        if Wgraph.node_count level.Coarsen.graph >= Wgraph.node_count g then
          (levels, g)
        else coarsen (level :: levels) level.Coarsen.graph (depth + 1)
      end
    in
    let levels, coarsest = coarsen [] g 0 in
    (* One array holds every level's partition ([Coarsen.project]
       works in place). *)
    let part = Array.make (Wgraph.node_count g) 0 in
    let initial = initial_partition coarsest ~k in
    Array.blit initial 0 part 0 (Array.length initial);
    Refine.run coarsest part ~k ~max_imbalance ~passes:refine_passes;
    (* Uncoarsening phase: project and refine at every level. [levels]
       holds the coarsest level first; each level's fine graph is the
       next element's coarse graph, bottoming out at the input [g]. *)
    let rec unwind = function
      | [] -> ()
      | (level : Coarsen.level) :: finer ->
          let fine_graph =
            match finer with
            | [] -> g
            | next :: _ -> next.Coarsen.graph
          in
          Coarsen.project level part;
          Refine.run fine_graph part ~k ~max_imbalance ~passes:refine_passes;
          unwind finer
    in
    unwind levels;
    part
  end
