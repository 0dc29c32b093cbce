type t = {
  depth : int array;
  height : int array;
  criticality : int array;
  slack : int array;
  length : int;
}

let analyze (g : Ddg.t) =
  let n = Ddg.node_count g in
  let depth = Array.make n 0 in
  let height = Array.make n 0 in
  (* Forward pass: edges point from lower to higher indices, so a
     single program-order sweep is a topological traversal. *)
  for i = 0 to n - 1 do
    List.iter
      (fun (e : Ddg.edge) ->
        depth.(e.Ddg.dst) <- max depth.(e.Ddg.dst) (depth.(i) + e.Ddg.latency))
      g.Ddg.succs.(i)
  done;
  (* Backward pass for heights (inclusive of own latency). *)
  for i = n - 1 downto 0 do
    let own = Ddg.static_latency g.Ddg.uops.(i) in
    height.(i) <-
      List.fold_left
        (fun acc (e : Ddg.edge) -> max acc (own + height.(e.Ddg.dst)))
        own g.Ddg.succs.(i)
  done;
  let criticality = Array.init n (fun i -> depth.(i) + height.(i)) in
  let length = Array.fold_left max 0 criticality in
  let slack = Array.map (fun c -> length - c) criticality in
  { depth; height; criticality; slack; length }

let critical_path (g : Ddg.t) t =
  match List.find_opt (fun i -> t.slack.(i) = 0) (Ddg.roots g) with
  | None -> []
  | Some root ->
      let rec follow node acc =
        let next =
          List.find_opt (fun (e : Ddg.edge) -> t.slack.(e.Ddg.dst) = 0)
            g.Ddg.succs.(node)
        in
        match next with
        | Some e -> follow e.Ddg.dst (e.Ddg.dst :: acc)
        | None -> List.rev acc
      in
      follow root [ root ]
