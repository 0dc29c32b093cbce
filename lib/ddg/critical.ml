type t = {
  depth : int array;
  height : int array;
  criticality : int array;
  slack : int array;
  length : int;
}

let analyze (g : Ddg.t) =
  let n = Ddg.node_count g in
  let lat = g.Ddg.latency and succ = g.Ddg.succ and off = g.Ddg.succ_off in
  let depth = Array.make n 0 in
  let height = Array.make n 0 in
  (* Forward pass: edges point from lower to higher indices, so a
     single program-order sweep is a topological traversal. An edge's
     latency is its source's. *)
  for i = 0 to n - 1 do
    let reach = depth.(i) + lat.(i) in
    for k = off.(i) to off.(i + 1) - 1 do
      let d = succ.(k) in
      depth.(d) <- Int.max depth.(d) reach
    done
  done;
  (* Backward pass for heights (inclusive of own latency). *)
  for i = n - 1 downto 0 do
    let own = lat.(i) in
    let h = ref own in
    for k = off.(i) to off.(i + 1) - 1 do
      h := Int.max !h (own + height.(succ.(k)))
    done;
    height.(i) <- !h
  done;
  let criticality = Array.init n (fun i -> depth.(i) + height.(i)) in
  let length = Array.fold_left Int.max 0 criticality in
  let slack = Array.map (fun c -> length - c) criticality in
  { depth; height; criticality; slack; length }

(* The first zero-slack root, then repeatedly the first zero-slack
   successor, each in row order. *)
let critical_path (g : Ddg.t) t =
  let n = Ddg.node_count g in
  let rec root i =
    if i >= n then -1
    else if Ddg.pred_count g i = 0 && t.slack.(i) = 0 then i
    else root (i + 1)
  in
  let rec next k stop =
    if k >= stop then -1
    else if t.slack.(g.Ddg.succ.(k)) = 0 then g.Ddg.succ.(k)
    else next (k + 1) stop
  in
  let rec follow node acc =
    match next g.Ddg.succ_off.(node) g.Ddg.succ_off.(node + 1) with
    | -1 -> List.rev acc
    | s -> follow s (s :: acc)
  in
  match root 0 with -1 -> [] | r -> follow r [ r ]
