(* Tests for the multilevel graph-partitioning substrate. *)

open Clusteer_graphpart

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let path_graph n =
  (* 0 - 1 - ... - n-1 with unit weights. *)
  Wgraph.create ~nv:n
    ~vwgt:(Array.make n 1.0)
    ~edges:(List.init (n - 1) (fun i -> (i, i + 1, 1.0)))

(* Two unit-weight cliques joined by a light bridge. *)
let two_cliques () =
  let clique base = [ (base, base + 1, 5.0); (base, base + 2, 5.0); (base + 1, base + 2, 5.0) ] in
  Wgraph.create ~nv:6
    ~vwgt:(Array.make 6 1.0)
    ~edges:(clique 0 @ clique 3 @ [ (2, 3, 0.5) ])

(* ---- Wgraph ------------------------------------------------------------ *)

let test_wgraph_merges_parallel_edges () =
  let g =
    Wgraph.create ~nv:2 ~vwgt:[| 1.0; 1.0 |]
      ~edges:[ (0, 1, 1.0); (1, 0, 2.0) ]
  in
  check_float "merged weight" 3.0 (Wgraph.edge_weight g 0 1);
  check_int "degree" 1 (Wgraph.degree g 0)

let test_wgraph_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Wgraph.create: self loop")
    (fun () ->
      ignore (Wgraph.create ~nv:1 ~vwgt:[| 1.0 |] ~edges:[ (0, 0, 1.0) ]))

let test_wgraph_fold_edges_once () =
  let g = two_cliques () in
  let count = Wgraph.fold_edges (fun _ _ _ acc -> acc + 1) g 0 in
  check_int "edge count" 7 count

let test_wgraph_total_weight () =
  check_float "total" 6.0 (Wgraph.total_weight (two_cliques ()))

(* ---- Partition metrics --------------------------------------------------- *)

let test_partition_edge_cut () =
  let g = two_cliques () in
  let ideal = [| 0; 0; 0; 1; 1; 1 |] in
  check_float "bridge only" 0.5 (Partition.edge_cut g ideal);
  let bad = [| 0; 1; 0; 1; 0; 1 |] in
  check_bool "worse cut" true (Partition.edge_cut g bad > 0.5)

let test_partition_weights_imbalance () =
  let g = two_cliques () in
  let part = [| 0; 0; 0; 0; 1; 1 |] in
  Alcotest.(check (array (float 1e-9))) "weights" [| 4.0; 2.0 |]
    (Partition.part_weights g part ~k:2);
  check_bool "imbalance" true
    (abs_float (Partition.imbalance g part ~k:2 -. (4.0 /. 3.0)) < 1e-9)

let test_partition_validate () =
  Alcotest.check_raises "part out of range"
    (Invalid_argument "Partition.validate: node 1 in part 2") (fun () ->
      Partition.validate [| 0; 2 |] ~k:2)

(* ---- Coarsening ----------------------------------------------------------- *)

let test_coarsen_preserves_total_weight () =
  let g = two_cliques () in
  let level = Coarsen.step g in
  check_float "weight preserved"
    (Wgraph.total_weight g)
    (Wgraph.total_weight level.Coarsen.graph)

let test_coarsen_shrinks () =
  let g = path_graph 10 in
  let level = Coarsen.step g in
  check_bool "shrinks" true (Wgraph.node_count level.Coarsen.graph < 10)

let test_coarsen_heavy_edges_first () =
  (* With one heavy edge, that pair must be matched. *)
  let g =
    Wgraph.create ~nv:4
      ~vwgt:(Array.make 4 1.0)
      ~edges:[ (0, 1, 100.0); (1, 2, 1.0); (2, 3, 1.0) ]
  in
  let level = Coarsen.step ~seed:3 g in
  check_int "0 and 1 merged" level.Coarsen.map.(0) level.Coarsen.map.(1)

let test_coarsen_respects_max_node_weight () =
  let g =
    Wgraph.create ~nv:2 ~vwgt:[| 3.0; 3.0 |] ~edges:[ (0, 1, 10.0) ]
  in
  let level = Coarsen.step ~max_node_weight:4.0 g in
  check_int "no merge over cap" 2 (Wgraph.node_count level.Coarsen.graph)

let test_coarsen_project () =
  let g = path_graph 4 in
  let level = Coarsen.step g in
  let coarse_part = Array.make (Wgraph.node_count level.Coarsen.graph) 0 in
  coarse_part.(0) <- 1;
  let fine = Array.make (Wgraph.node_count g) 0 in
  Array.blit coarse_part 0 fine 0 (Array.length coarse_part);
  Coarsen.project level fine;
  Array.iteri
    (fun v p -> check_int "projected" coarse_part.(level.Coarsen.map.(v)) p)
    fine

(* ---- Refinement ------------------------------------------------------------ *)

let test_refine_improves_cut () =
  let g = two_cliques () in
  let part = [| 0; 1; 0; 1; 0; 1 |] in
  let before = Partition.edge_cut g part in
  (* 1.4 allows the transient 4/2 imbalance the move sequence passes
     through; the final partition is balanced again. *)
  Refine.run g part ~k:2 ~max_imbalance:1.4 ~passes:8;
  let after = Partition.edge_cut g part in
  check_bool "cut improved" true (after < before);
  check_float "reaches optimum" 0.5 after

let test_refine_rebalance_enforces_cap () =
  let g = path_graph 8 in
  let part = Array.make 8 0 in
  (* everything in part 0: rebalance must move ~half to part 1 *)
  Refine.rebalance g part ~k:2 ~max_imbalance:1.1;
  let w = Partition.part_weights g part ~k:2 in
  check_bool "part 0 within cap" true (w.(0) <= 1.1 *. 4.0 +. 1e-9);
  check_bool "part 1 nonempty" true (w.(1) > 0.0)

(* ---- Multilevel -------------------------------------------------------------- *)

let test_multilevel_two_cliques () =
  let g = two_cliques () in
  let part = Multilevel.partition g ~k:2 in
  Partition.validate part ~k:2;
  (* The natural split puts each clique in one part. *)
  check_float "optimal cut" 0.5 (Partition.edge_cut g part);
  check_bool "cliques intact" true
    (part.(0) = part.(1) && part.(1) = part.(2) && part.(3) = part.(4)
   && part.(4) = part.(5) && part.(0) <> part.(3))

let test_multilevel_k1 () =
  let g = path_graph 5 in
  let part = Multilevel.partition g ~k:1 in
  check_bool "all in part 0" true (Array.for_all (fun p -> p = 0) part)

let test_multilevel_balance () =
  let g = path_graph 32 in
  let part = Multilevel.partition g ~k:4 ~max_imbalance:1.25 in
  Partition.validate part ~k:4;
  check_bool "imbalance bounded" true
    (Partition.imbalance g part ~k:4 <= 1.3)

let test_initial_partition_balances () =
  let g =
    Wgraph.create ~nv:4 ~vwgt:[| 4.0; 3.0; 2.0; 1.0 |] ~edges:[]
  in
  let part = Multilevel.initial_partition g ~k:2 in
  let w = Partition.part_weights g part ~k:2 in
  check_float "balanced split" 5.0 w.(0);
  check_float "balanced split" 5.0 w.(1)

(* ---- Properties ---------------------------------------------------------------- *)

let arb_graph =
  QCheck.make
    QCheck.Gen.(
      sized (fun size st ->
          let n = max 2 (min size 30) in
          let nedges = int_bound (3 * n) st in
          let edges =
            List.init nedges (fun _ ->
                let a = int_bound (n - 1) st and b = int_bound (n - 1) st in
                (a, b, float_of_int (1 + int_bound 9 st)))
            |> List.filter (fun (a, b, _) -> a <> b)
          in
          let vwgt = Array.init n (fun _ -> float_of_int (1 + int_bound 4 st)) in
          Wgraph.create ~nv:n ~vwgt ~edges))

let prop_multilevel_valid =
  QCheck.Test.make ~name:"multilevel returns a valid partition" ~count:150
    arb_graph (fun g ->
      let k = 2 + (Wgraph.node_count g mod 3) in
      let part = Multilevel.partition g ~k in
      Partition.validate part ~k;
      Array.length part = Wgraph.node_count g)

let prop_coarsen_weight_conserved =
  QCheck.Test.make ~name:"coarsening conserves node weight" ~count:150
    arb_graph (fun g ->
      let level = Coarsen.step g in
      abs_float (Wgraph.total_weight g -. Wgraph.total_weight level.Coarsen.graph)
      < 1e-6)

(* [Coarsen.project] works in place and so depends on [map.(v) <= v];
   the out-of-place lookup is the reference. *)
let prop_coarsen_project_in_place =
  QCheck.Test.make ~name:"map.(v) <= v and in-place project = lookup"
    ~count:150 arb_graph (fun g ->
      let level = Coarsen.step ~seed:(Wgraph.node_count g) g in
      let map = level.Coarsen.map in
      let nc = Wgraph.node_count level.Coarsen.graph in
      let coarse_part = Array.init nc (fun c -> (c * 7) mod 3) in
      let part = Array.make (Array.length map) (-1) in
      Array.blit coarse_part 0 part 0 nc;
      Coarsen.project level part;
      Array.for_all Fun.id (Array.mapi (fun v c -> c <= v) map)
      && part = Array.map (fun c -> coarse_part.(c)) map)

let prop_refine_never_worsens_cut_much =
  QCheck.Test.make ~name:"gain pass never increases the cut" ~count:150
    arb_graph (fun g ->
      let n = Wgraph.node_count g in
      let part = Array.init n (fun i -> i mod 2) in
      let before = Partition.edge_cut g part in
      ignore (Refine.pass g part ~k:2 ~max_imbalance:4.0);
      Partition.edge_cut g part <= before +. 1e-6)

(* ---- Row order = the hash-table builder ------------------------------------ *)

(* The hash-table builder the CSR rows replaced, kept verbatim as the
   reference: its neighbour order decides RHOP's tie-breaks. *)
module Reference = struct
  type t = { nv : int; vwgt : float array; adj : (int * float) list array }

  let create ~nv ~vwgt ~edges =
    if Array.length vwgt <> nv then invalid_arg "Wgraph.create: vwgt arity";
    let merged = Hashtbl.create (List.length edges) in
    List.iter
      (fun (a, b, w) ->
        if a = b then invalid_arg "Wgraph.create: self loop";
        if a < 0 || a >= nv || b < 0 || b >= nv then
          invalid_arg "Wgraph.create: endpoint out of range";
        if w < 0.0 then invalid_arg "Wgraph.create: negative edge weight";
        let key = if a < b then (a, b) else (b, a) in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt merged key) in
        Hashtbl.replace merged key (prev +. w))
      edges;
    let adj = Array.make nv [] in
    Hashtbl.iter
      (fun (a, b) w ->
        adj.(a) <- (b, w) :: adj.(a);
        adj.(b) <- (a, w) :: adj.(b))
      merged;
    { nv; vwgt; adj }

  let fold_edges f t init =
    let acc = ref init in
    for a = 0 to t.nv - 1 do
      List.iter (fun (b, w) -> if a < b then acc := f a b w !acc) t.adj.(a)
    done;
    !acc
end

let row (g : Wgraph.t) v =
  List.init (Wgraph.degree g v) (fun i ->
      (g.Wgraph.adj.(g.Wgraph.off.(v) + i), g.Wgraph.wgt.(g.Wgraph.off.(v) + i)))

let edge_list fold g = List.rev (fold (fun a b w acc -> (a, b, w) :: acc) g [])

(* Exact equality, floats included: same neighbours in the same order
   with weights summed in the same order. *)
let rows_match ~nv edges =
  let vwgt = Array.make nv 1.0 in
  let g = Wgraph.create ~nv ~vwgt ~edges in
  let r = Reference.create ~nv ~vwgt ~edges in
  List.for_all (fun v -> row g v = r.Reference.adj.(v)) (List.init nv Fun.id)
  && edge_list Wgraph.fold_edges g = edge_list Reference.fold_edges r

(* Few nodes and many edges, so pairs repeat (in both orientations);
   weights from a small set whose sums depend on the order of
   addition; edge counts across several bucket-count doublings. *)
let gen_multigraph =
  QCheck.Gen.(
    sized (fun size st ->
        let nv = 2 + int_bound (min 12 (1 + (size / 4))) st in
        let m = int_bound (min 150 (2 * size)) st in
        let weights = [| 0.1; 0.2; 0.3; 1.0; 1.0; 2.5; 1e-3; 0.0 |] in
        let edges =
          List.init m (fun _ ->
              let a = int_bound (nv - 1) st in
              let b = (a + 1 + int_bound (nv - 2) st) mod nv in
              (a, b, weights.(int_bound (Array.length weights - 1) st)))
        in
        (nv, edges)))

let prop_rows_match_reference =
  QCheck.Test.make ~name:"csr rows and fold_edges = hash-table reference"
    ~count:2000
    (QCheck.make
       ~print:(fun (nv, edges) ->
         Printf.sprintf "nv=%d edges=[%s]" nv
           (String.concat "; "
              (List.map (fun (a, b, w) -> Printf.sprintf "(%d,%d,%g)" a b w) edges)))
       gen_multigraph)
    (fun (nv, edges) -> rows_match ~nv edges)

let same_rows (g : Wgraph.t) (r : Reference.t) =
  Wgraph.node_count g = r.Reference.nv
  && List.for_all
       (fun v -> row g v = r.Reference.adj.(v))
       (List.init r.Reference.nv Fun.id)

let test_rows_match_coarse_levels () =
  (* RHOP's input graph of every region of a real program, from the
     DDG's edges in order, and every coarse level the partitioner
     derives from it, from the reversed, mapped fine edges (the list
     the coarsening step used to build), keep the reference rows. *)
  let module Ddg = Clusteer_ddg.Ddg in
  let module W = Clusteer_workloads in
  let w = W.Synth.build (W.Spec2000.find "gcc-1") in
  let regions =
    Clusteer_ddg.Region.build ~program:w.W.Synth.program
      ~likely:w.W.Synth.likely ~max_uops:512
  in
  List.iter
    (fun region ->
      let ddg = Ddg.of_region region in
      let slack = (Clusteer_ddg.Critical.analyze ddg).Clusteer_ddg.Critical.slack in
      let edges = ref [] in
      Ddg.iter_edges ddg (fun a b ->
          let w = 1.0 +. (4.0 /. (1.0 +. float_of_int (min slack.(a) slack.(b)))) in
          edges := (a, b, w) :: !edges);
      let nv = Ddg.node_count ddg in
      let g = Clusteer_compiler.Rhop.weights_of_ddg ddg in
      check_bool "input rows" true
        (same_rows g
           (Reference.create ~nv ~vwgt:(Array.make nv 1.0) ~edges:(List.rev !edges)));
      let rec down g depth =
        let level = Coarsen.step ~seed:(1 + depth) g in
        let map = level.Coarsen.map in
        let edges =
          Wgraph.fold_edges
            (fun a b w acc ->
              if map.(a) <> map.(b) then (map.(a), map.(b), w) :: acc else acc)
            g []
        in
        let coarse = level.Coarsen.graph in
        check_bool "coarse rows" true
          (same_rows coarse
             (Reference.create ~nv:(Wgraph.node_count coarse)
                ~vwgt:coarse.Wgraph.vwgt ~edges));
        if Wgraph.node_count coarse < Wgraph.node_count g then
          down coarse (depth + 1)
      in
      down g 0)
    regions

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "clusteer_graphpart"
    [
      ( "wgraph",
        [
          Alcotest.test_case "merges parallel edges" `Quick test_wgraph_merges_parallel_edges;
          Alcotest.test_case "rejects self loop" `Quick test_wgraph_rejects_self_loop;
          Alcotest.test_case "fold edges once" `Quick test_wgraph_fold_edges_once;
          Alcotest.test_case "total weight" `Quick test_wgraph_total_weight;
          Alcotest.test_case "rows = reference on coarse levels" `Quick
            test_rows_match_coarse_levels;
          QCheck_alcotest.to_alcotest prop_rows_match_reference;
        ] );
      ( "partition",
        [
          Alcotest.test_case "edge cut" `Quick test_partition_edge_cut;
          Alcotest.test_case "weights and imbalance" `Quick test_partition_weights_imbalance;
          Alcotest.test_case "validate" `Quick test_partition_validate;
        ] );
      ( "coarsen",
        [
          Alcotest.test_case "preserves weight" `Quick test_coarsen_preserves_total_weight;
          Alcotest.test_case "shrinks" `Quick test_coarsen_shrinks;
          Alcotest.test_case "heavy edges first" `Quick test_coarsen_heavy_edges_first;
          Alcotest.test_case "max node weight" `Quick test_coarsen_respects_max_node_weight;
          Alcotest.test_case "project" `Quick test_coarsen_project;
        ] );
      ( "refine",
        [
          Alcotest.test_case "improves cut" `Quick test_refine_improves_cut;
          Alcotest.test_case "rebalance cap" `Quick test_refine_rebalance_enforces_cap;
        ] );
      ( "multilevel",
        [
          Alcotest.test_case "two cliques" `Quick test_multilevel_two_cliques;
          Alcotest.test_case "k=1" `Quick test_multilevel_k1;
          Alcotest.test_case "balance" `Quick test_multilevel_balance;
          Alcotest.test_case "initial partition" `Quick test_initial_partition_balances;
          qc prop_multilevel_valid;
          qc prop_coarsen_weight_conserved;
          qc prop_coarsen_project_in_place;
          qc prop_refine_never_worsens_cut_much;
        ] );
    ]
