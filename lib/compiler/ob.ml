open Clusteer_isa
open Clusteer_ddg

let assign_region g ~clusters ~issue_width =
  let est = Estimate.create ~parts:clusters ~issue_width g in
  let n = Ddg.node_count g in
  let assignment = Array.make n 0 in
  Array.iter
    (fun node ->
      let best = ref 0 and best_cost = ref infinity in
      for c = 0 to clusters - 1 do
        let cost = Estimate.estimate est ~node ~part:c in
        (* Strict improvement keeps ties on the lowest-loaded earlier
           cluster; break exact ties by load. *)
        if
          cost < !best_cost
          || (cost = !best_cost && Estimate.load est c < Estimate.load est !best)
        then begin
          best := c;
          best_cost := cost
        end
      done;
      Estimate.place est ~node ~part:!best;
      assignment.(node) <- !best)
    (Ddg.topological_order g);
  assignment

let compile ~program ~likely ~clusters ~region_uops =
  let annot =
    Annot.create_static ~scheme:"ob" ~uop_count:program.Program.uop_count
  in
  let regions = Region.build ~program ~likely ~max_uops:region_uops in
  List.iter
    (fun region ->
      let g = Ddg.of_region region in
      let assignment =
        assign_region g ~clusters ~issue_width:Estimate.issue_width
      in
      Array.iteri
        (fun node (u : Uop.t) ->
          annot.Annot.cluster_of.(u.Uop.id) <- assignment.(node))
        region.Region.uops)
    regions;
  Annot.validate annot ~clusters;
  annot
