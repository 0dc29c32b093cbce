open Clusteer_isa
open Clusteer_ddg

(* Program order is a topological order of the DDG. *)
let assign_region g ~clusters ~issue_width =
  let est = Estimate.create ~parts:clusters ~issue_width g in
  for node = 0 to Ddg.node_count g - 1 do
    Estimate.place est ~node ~part:(Estimate.cheapest est ~node)
  done;
  Estimate.assignment est

let compile ~program ~likely ~clusters ~region_uops =
  let annot =
    Annot.create_static ~scheme:"ob" ~uop_count:program.Program.uop_count
  in
  let regions = Region.build ~program ~likely ~max_uops:region_uops in
  let scratch = Ddg.scratch () in
  List.iter
    (fun region ->
      let g = Ddg.of_region ~scratch region in
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
