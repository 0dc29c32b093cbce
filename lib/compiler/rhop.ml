open Clusteer_isa
open Clusteer_ddg
open Clusteer_graphpart

let weights_of_ddg g =
  let crit = Critical.analyze g in
  let n = Ddg.node_count g in
  (* Node weight 1 per operation: cluster workload is issue-slot
     occupancy, which is what the per-cluster queues bound. *)
  let vwgt = Array.make n 1.0 in
  let edges =
    Array.to_list g.Ddg.succs
    |> List.concat_map
         (List.map (fun (e : Ddg.edge) ->
              let slack =
                min crit.Critical.slack.(e.Ddg.src)
                  crit.Critical.slack.(e.Ddg.dst)
              in
              let weight = 1.0 +. (4.0 /. (1.0 +. float_of_int slack)) in
              (e.Ddg.src, e.Ddg.dst, weight)))
  in
  Wgraph.create ~nv:n ~vwgt ~edges

let assign_region ?(seed = 1) g ~clusters =
  let wg = weights_of_ddg g in
  Multilevel.partition ~seed ~max_imbalance:1.05 ~refine_passes:8 wg ~k:clusters

let compile ~program ~likely ~clusters ~region_uops =
  let annot =
    Annot.create_static ~scheme:"rhop" ~uop_count:program.Program.uop_count
  in
  let regions = Region.build ~program ~likely ~max_uops:region_uops in
  List.iter
    (fun region ->
      let g = Ddg.of_region region in
      let assignment = assign_region ~seed:(1 + region.Region.id) g ~clusters in
      Array.iteri
        (fun node (u : Uop.t) ->
          annot.Annot.cluster_of.(u.Uop.id) <- assignment.(node))
        region.Region.uops)
    regions;
  Annot.validate annot ~clusters;
  annot
