open Clusteer_isa
open Clusteer_ddg

(* Critical instructions should chase their producers regardless of
   contention; fully slack instructions should fill the lightest VC.
   Map slack ratio in [0,1] to a contention scale in [min_scale, 1].
   [min_scale] is the placement criticality weight: at 0 a zero-slack
   instruction ignores contention entirely and always follows its
   producers; at 1 criticality is ignored and every instruction is
   priced purely on completion time (§4.2's behaviour disabled). *)
let contention_scale_of_slack ~min_scale crit =
  let max_slack =
    Array.fold_left max 1 crit.Critical.slack |> float_of_int
  in
  fun node ->
    let ratio = float_of_int crit.Critical.slack.(node) /. max_slack in
    min_scale +. ((1.0 -. min_scale) *. ratio)

(* Step 1 of Fig. 2 applied literally: nodes are partitioned "according
   to different critical paths" — one seed path per virtual cluster.
   Each seed is a maximal chain grown through the most critical
   unclaimed node, following the highest-criticality unclaimed
   neighbour in both directions. With as many VCs as truly independent
   paths this is harmless; with more VCs than the DDG has independent
   critical paths, overlapping paths are torn apart — the very
   behaviour §5.4 blames for VC(4→4)'s extra copies. *)
let seed_critical_paths g crit ~virtual_clusters =
  let n = Ddg.node_count g in
  let forced = Array.make n (-1) in
  let most_critical_unclaimed () =
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if
        forced.(i) = -1
        && (!best = -1
           || crit.Critical.criticality.(i) > crit.Critical.criticality.(!best))
      then best := i
    done;
    !best
  in
  for vc = 0 to virtual_clusters - 1 do
    let seed = most_critical_unclaimed () in
    if seed >= 0 then begin
      forced.(seed) <- vc;
      (* grow the path backward along the most critical unclaimed
         predecessors, then forward along successors *)
      let rec backward node =
        let best = ref (-1) in
        List.iter
          (fun (e : Ddg.edge) ->
            let p = e.Ddg.src in
            if
              forced.(p) = -1
              && (!best = -1
                 || crit.Critical.criticality.(p)
                    > crit.Critical.criticality.(!best))
            then best := p)
          g.Ddg.preds.(node);
        if !best >= 0 then begin
          forced.(!best) <- vc;
          backward !best
        end
      in
      let rec forward node =
        let best = ref (-1) in
        List.iter
          (fun (e : Ddg.edge) ->
            let s = e.Ddg.dst in
            if
              forced.(s) = -1
              && (!best = -1
                 || crit.Critical.criticality.(s)
                    > crit.Critical.criticality.(!best))
            then best := s)
          g.Ddg.succs.(node);
        if !best >= 0 then begin
          forced.(!best) <- vc;
          forward !best
        end
      in
      backward seed;
      forward seed
    end
  done;
  forced

let assign_region g ~virtual_clusters ~crit_min_scale =
  let crit = Critical.analyze g in
  let est =
    Estimate.create ~parts:virtual_clusters ~issue_width:Estimate.issue_width
      ~contention_scale:
        (contention_scale_of_slack ~min_scale:crit_min_scale crit)
      g
  in
  let forced = seed_critical_paths g crit ~virtual_clusters in
  let n = Ddg.node_count g in
  let assignment = Array.make n 0 in
  Array.iter
    (fun node ->
      let target =
        if forced.(node) >= 0 then forced.(node)
        else begin
          let best = ref 0 and best_cost = ref infinity in
          for vc = 0 to virtual_clusters - 1 do
            let cost = Estimate.estimate est ~node ~part:vc in
            if
              cost < !best_cost
              || cost = !best_cost
                 && Estimate.load est vc < Estimate.load est !best
            then begin
              best := vc;
              best_cost := cost
            end
          done;
          !best
        end
      in
      Estimate.place est ~node ~part:target;
      assignment.(node) <- target)
    (Ddg.topological_order g);
  assignment

let compile ~program ~likely ~virtual_clusters ~region_uops ~crit_min_scale
    ~max_chain =
  let annot =
    Annot.create_virtual ~scheme:"vc" ~virtual_clusters
      ~uop_count:program.Program.uop_count
  in
  let regions = Region.build ~program ~likely ~max_uops:region_uops in
  List.iter
    (fun region ->
      let g = Ddg.of_region region in
      let assignment = assign_region g ~virtual_clusters ~crit_min_scale in
      Array.iteri
        (fun node (u : Uop.t) ->
          annot.Annot.vc_of.(u.Uop.id) <- assignment.(node))
        region.Region.uops;
      Chains.mark_region ~max_chain annot region)
    regions;
  Annot.validate annot ~clusters:1;
  annot
