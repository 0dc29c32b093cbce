open Clusteer_isa
open Clusteer_ddg

(* Critical instructions should chase their producers regardless of
   contention; fully slack instructions should fill the lightest VC.
   Map slack ratio in [0,1] to a contention scale in [min_scale, 1].
   [min_scale] is the placement criticality weight: at 0 a zero-slack
   instruction ignores contention entirely and always follows its
   producers; at 1 criticality is ignored and every instruction is
   priced purely on completion time (§4.2's behaviour disabled). *)
let contention_of_slack ~min_scale crit =
  let slack = crit.Critical.slack in
  let max_slack = float_of_int (Array.fold_left Int.max 1 slack) in
  let scale = Array.make (Array.length slack) 0.0 in
  for node = 0 to Array.length slack - 1 do
    let ratio = float_of_int slack.(node) /. max_slack in
    scale.(node) <- min_scale +. ((1.0 -. min_scale) *. ratio)
  done;
  scale

(* The first most critical unclaimed node among [row]'s entries
   [lo .. hi - 1], or -1. *)
let most_critical (criticality : int array) (forced : int array)
    (row : int array) lo hi =
  let best = ref (-1) in
  for k = lo to hi - 1 do
    let p = row.(k) in
    if forced.(p) = -1 && (!best = -1 || criticality.(p) > criticality.(!best))
    then best := p
  done;
  !best

(* Claim for [vc], from [node] on, the most critical unclaimed
   neighbour along [row] (the DDG's predecessor or successor rows)
   until there is none. *)
let rec extend_path criticality forced (row : int array) (off : int array) vc
    node =
  let next = most_critical criticality forced row off.(node) off.(node + 1) in
  if next >= 0 then begin
    forced.(next) <- vc;
    extend_path criticality forced row off vc next
  end

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
  let criticality = crit.Critical.criticality in
  let forced = Array.make n (-1) in
  for vc = 0 to virtual_clusters - 1 do
    (* The first most critical unclaimed node. *)
    let seed = ref (-1) in
    for i = 0 to n - 1 do
      if forced.(i) = -1 && (!seed = -1 || criticality.(i) > criticality.(!seed))
      then seed := i
    done;
    let seed = !seed in
    if seed >= 0 then begin
      forced.(seed) <- vc;
      (* grow the path backward along the most critical unclaimed
         predecessors, then forward along successors *)
      extend_path criticality forced g.Ddg.pred g.Ddg.pred_off vc seed;
      extend_path criticality forced g.Ddg.succ g.Ddg.succ_off vc seed
    end
  done;
  forced

let assign_region g ~virtual_clusters ~crit_min_scale =
  let crit = Critical.analyze g in
  let est =
    Estimate.create ~parts:virtual_clusters ~issue_width:Estimate.issue_width
      ~contention:(contention_of_slack ~min_scale:crit_min_scale crit)
      g
  in
  (* Seeded nodes keep their path's VC; the rest, visited in program
     order (a topological order of the DDG), go where they complete
     earliest. *)
  let assignment = seed_critical_paths g crit ~virtual_clusters in
  for node = 0 to Ddg.node_count g - 1 do
    if assignment.(node) < 0 then
      assignment.(node) <- Estimate.cheapest est ~node;
    Estimate.place est ~node ~part:assignment.(node)
  done;
  assignment

let compile ~program ~likely ~virtual_clusters ~region_uops ~crit_min_scale
    ~max_chain =
  let annot =
    Annot.create_virtual ~scheme:"vc" ~virtual_clusters
      ~uop_count:program.Program.uop_count
  in
  let regions = Region.build ~program ~likely ~max_uops:region_uops in
  let scratch = Ddg.scratch () in
  List.iter
    (fun region ->
      let g = Ddg.of_region ~scratch region in
      let assignment = assign_region g ~virtual_clusters ~crit_min_scale in
      Array.iteri
        (fun node (u : Uop.t) ->
          annot.Annot.vc_of.(u.Uop.id) <- assignment.(node))
        region.Region.uops;
      Chains.mark_region ~max_chain annot region)
    regions;
  Annot.validate annot ~clusters:1;
  annot
