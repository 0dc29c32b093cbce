let[@inline] cap_of weights ~k ~max_imbalance =
  let total = ref 0.0 in
  for p = 0 to k - 1 do
    total := !total +. weights.(p)
  done;
  let ideal = if !total > 0.0 then !total /. float_of_int k else 1.0 in
  max_imbalance *. ideal

(* One gain pass with the caller's [link] and [weights] scratch (length
   [k] each), so a refinement run allocates them once. *)
let gain_pass (g : Wgraph.t) part ~k ~max_imbalance ~link ~weights =
  let off = g.Wgraph.off and adj = g.Wgraph.adj and wgt = g.Wgraph.wgt in
  Partition.weigh_into g part weights;
  let cap = cap_of weights ~k ~max_imbalance in
  let moved = ref false in
  for v = 0 to g.Wgraph.nv - 1 do
    let home = part.(v) in
    (* Connectivity of v to each part, summed in row order. *)
    Array.fill link 0 k 0.0;
    for j = off.(v) to off.(v + 1) - 1 do
      let p = part.(adj.(j)) in
      link.(p) <- link.(p) +. wgt.(j)
    done;
    let vw = g.Wgraph.vwgt.(v) in
    let heaviest = ref 0.0 in
    for p = 0 to k - 1 do
      if weights.(p) > !heaviest then heaviest := weights.(p)
    done;
    let best = ref home and best_gain = ref 0.0 in
    for p = 0 to k - 1 do
      if p <> home then begin
        let gain = link.(p) -. link.(home) in
        let new_weight = weights.(p) +. vw in
        let balance_ok = new_weight <= cap || new_weight < !heaviest in
        (* Prefer strict cut improvement; accept zero-gain moves that
           improve balance, which spreads weight when cuts tie. *)
        let improves_balance =
          gain = 0.0 && weights.(p) +. vw < weights.(home)
        in
        if balance_ok && (gain > !best_gain || (improves_balance && !best = home))
        then begin
          best := p;
          best_gain := gain
        end
      end
    done;
    if !best <> home then begin
      weights.(home) <- weights.(home) -. vw;
      weights.(!best) <- weights.(!best) +. vw;
      part.(v) <- !best;
      moved := true
    end
  done;
  !moved

let pass g part ~k ~max_imbalance =
  gain_pass g part ~k ~max_imbalance ~link:(Array.make k 0.0)
    ~weights:(Array.make k 0.0)

(* Explicit rebalance: while some part exceeds the imbalance cap, move
   the node of the heaviest part whose departure costs the least edge
   weight to the lightest part. Runs after gain-driven passes so that
   balance is restored even when every rebalancing move has negative
   cut gain (e.g. when coarsening glued a long chain together). *)
let rebalance_with (g : Wgraph.t) part ~k ~max_imbalance ~weights =
  let n = g.Wgraph.nv in
  let off = g.Wgraph.off and adj = g.Wgraph.adj and wgt = g.Wgraph.wgt in
  Partition.weigh_into g part weights;
  let cap = cap_of weights ~k ~max_imbalance in
  let heaviest () =
    let h = ref 0 in
    for p = 1 to k - 1 do
      if weights.(p) > weights.(!h) then h := p
    done;
    !h
  in
  let lightest () =
    let l = ref 0 in
    for p = 1 to k - 1 do
      if weights.(p) < weights.(!l) then l := p
    done;
    !l
  in
  let guard = ref (2 * n) in
  let continue_ = ref true in
  while !continue_ && !guard > 0 do
    decr guard;
    let src = heaviest () and dst = lightest () in
    if weights.(src) <= cap || src = dst then continue_ := false
    else begin
      (* Cheapest node to evict: least (internal - external) link. *)
      let best = ref (-1) and best_cost = ref infinity in
      for v = 0 to n - 1 do
        if part.(v) = src then begin
          let internal = ref 0.0 and towards = ref 0.0 in
          for j = off.(v) to off.(v + 1) - 1 do
            let pu = part.(adj.(j)) in
            if pu = src then internal := !internal +. wgt.(j)
            else if pu = dst then towards := !towards +. wgt.(j)
          done;
          let cost = !internal -. !towards in
          if cost < !best_cost then begin
            best := v;
            best_cost := cost
          end
        end
      done;
      if !best < 0 then continue_ := false
      else begin
        let vw = g.Wgraph.vwgt.(!best) in
        part.(!best) <- dst;
        weights.(src) <- weights.(src) -. vw;
        weights.(dst) <- weights.(dst) +. vw
      end
    end
  done

let rebalance g part ~k ~max_imbalance =
  rebalance_with g part ~k ~max_imbalance ~weights:(Array.make k 0.0)

let run g part ~k ~max_imbalance ~passes =
  let link = Array.make k 0.0 and weights = Array.make k 0.0 in
  let i = ref 0 in
  while !i < passes && gain_pass g part ~k ~max_imbalance ~link ~weights do
    incr i
  done;
  rebalance_with g part ~k ~max_imbalance ~weights;
  (* A final gain pass can claw back cut lost during rebalancing. *)
  ignore (gain_pass g part ~k ~max_imbalance ~link ~weights)
