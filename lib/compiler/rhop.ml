open Clusteer_isa
open Clusteer_ddg
open Clusteer_graphpart
module Scratch = Clusteer_util.Scratch

(* A compile's working tables, reused region to region. *)
type scratch = {
  ddg : Ddg.scratch;
  merge : Wgraph.scratch;
  coarsen : Coarsen.scratch;
  mutable src : int array;
  mutable weight : float array;
}

let scratch () =
  {
    ddg = Ddg.scratch ();
    merge = Wgraph.scratch ();
    coarsen = Coarsen.scratch ();
    src = [||];
    weight = [||];
  }

let weights s g =
  let crit = Critical.analyze g in
  let slack = crit.Critical.slack in
  let n = Ddg.node_count g and m = Ddg.edge_count g in
  (* Node weight 1 per operation: cluster workload is issue-slot
     occupancy, which is what the per-cluster queues bound. *)
  let vwgt = Array.make n 1.0 in
  (* One input edge per DDG edge, in [Ddg.iter_edges] order. *)
  s.src <- Scratch.fit s.src m 0;
  s.weight <- Scratch.fit s.weight m 0.0;
  let src = s.src and weight = s.weight in
  for v = 0 to n - 1 do
    for k = g.Ddg.succ_off.(v) to g.Ddg.succ_off.(v + 1) - 1 do
      let edge_slack = Int.min slack.(v) slack.(g.Ddg.succ.(k)) in
      src.(k) <- v;
      weight.(k) <- 1.0 +. (4.0 /. (1.0 +. float_of_int edge_slack))
    done
  done;
  Wgraph.of_edges s.merge ~nv:n ~vwgt ~len:m ~src ~dst:g.Ddg.succ ~weight

let weights_of_ddg g = weights (scratch ()) g

let partition s ~seed g ~clusters =
  Multilevel.partition ~scratch:s.coarsen ~seed ~max_imbalance:1.05
    ~refine_passes:8 (weights s g) ~k:clusters

let assign_region ?(seed = 1) g ~clusters =
  partition (scratch ()) ~seed g ~clusters

let compile ~program ~likely ~clusters ~region_uops =
  let annot =
    Annot.create_static ~scheme:"rhop" ~uop_count:program.Program.uop_count
  in
  let regions = Region.build ~program ~likely ~max_uops:region_uops in
  let s = scratch () in
  List.iter
    (fun region ->
      let g = Ddg.of_region ~scratch:s.ddg region in
      let assignment = partition s ~seed:(1 + region.Region.id) g ~clusters in
      Array.iteri
        (fun node (u : Uop.t) ->
          annot.Annot.cluster_of.(u.Uop.id) <- assignment.(node))
        region.Region.uops)
    regions;
  Annot.validate annot ~clusters;
  annot
