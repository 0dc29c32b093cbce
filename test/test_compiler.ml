(* Tests for the compiler passes: the completion-time estimator, OB,
   RHOP, the VC partitioner and chain identification. *)

open Clusteer_isa
open Clusteer_ddg
open Clusteer_compiler
module Configuration = Clusteer.Configuration

(* The paper's knob values, which every pass below is run with. *)
let params = Configuration.default_params

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let alu b ~dst ~srcs =
  Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int dst)
    ~srcs:(Array.of_list (List.map Reg.int srcs))
    ()

(* Two independent chains of length 3 each. *)
let two_chain_uops () =
  let b = Program.Builder.create ~name:"c" ~nregs_per_class:8 () in
  [|
    alu b ~dst:0 ~srcs:[];
    alu b ~dst:0 ~srcs:[ 0 ];
    alu b ~dst:0 ~srcs:[ 0 ];
    alu b ~dst:1 ~srcs:[];
    alu b ~dst:1 ~srcs:[ 1 ];
    alu b ~dst:1 ~srcs:[ 1 ];
  |]

(* ---- Estimate ----------------------------------------------------------- *)

let test_estimate_dependence_prefers_producer_part () =
  let g = Ddg.build (two_chain_uops ()) in
  let est = Estimate.create ~parts:2 ~issue_width:2.0 g in
  Estimate.place est ~node:0 ~part:0;
  (* Node 1 depends on node 0: part 0 avoids the communication cycle. *)
  check_bool "same part cheaper" true
    (Estimate.estimate est ~node:1 ~part:0
    < Estimate.estimate est ~node:1 ~part:1)

let test_estimate_contention_spreads_roots () =
  let g = Ddg.build (two_chain_uops ()) in
  let est = Estimate.create ~parts:2 ~issue_width:1.0 g in
  Estimate.place est ~node:0 ~part:0;
  (* An independent root prefers the idle part once part 0 is busy. *)
  check_bool "idle part preferred" true
    (Estimate.estimate est ~node:3 ~part:1
    <= Estimate.estimate est ~node:3 ~part:0)

let test_estimate_place_commits () =
  let g = Ddg.build (two_chain_uops ()) in
  let est = Estimate.create ~parts:2 ~issue_width:2.0 g in
  Estimate.place est ~node:0 ~part:1;
  check_int "part recorded" 1 (Estimate.part_of est 0);
  check_bool "completion positive" true (Estimate.completion est 0 > 0.0);
  check_bool "load recorded" true (Estimate.load est 1 > 0.0);
  check_int "lightest is other" 0 (Estimate.lightest_part est)

let test_estimate_requires_placed_preds () =
  let g = Ddg.build (two_chain_uops ()) in
  let est = Estimate.create ~parts:2 ~issue_width:2.0 g in
  Alcotest.check_raises "unplaced predecessor"
    (Invalid_argument "Estimate: predecessor not yet placed") (fun () ->
      ignore (Estimate.estimate est ~node:1 ~part:0))

let test_estimate_double_place_rejected () =
  let g = Ddg.build (two_chain_uops ()) in
  let est = Estimate.create ~parts:2 ~issue_width:2.0 g in
  Estimate.place est ~node:0 ~part:0;
  Alcotest.check_raises "double place"
    (Invalid_argument "Estimate.place: already placed") (fun () ->
      Estimate.place est ~node:0 ~part:1)

(* ---- OB ------------------------------------------------------------------- *)

let test_ob_keeps_chains_together () =
  let g = Ddg.build (two_chain_uops ()) in
  let a = Ob.assign_region g ~clusters:2 ~issue_width:2.0 in
  check_int "chain 1 united (0-1)" a.(0) a.(1);
  check_int "chain 1 united (1-2)" a.(1) a.(2);
  check_int "chain 2 united (3-4)" a.(3) a.(4);
  check_int "chain 2 united (4-5)" a.(4) a.(5)

let test_ob_spreads_independent_chains () =
  let g = Ddg.build (two_chain_uops ()) in
  let a = Ob.assign_region g ~clusters:2 ~issue_width:1.0 in
  check_bool "chains on different clusters" true (a.(0) <> a.(3))

(* A tiny two-block program for whole-program passes. *)
let small_program () =
  let b = Program.Builder.create ~name:"p" ~nregs_per_class:8 () in
  let blk0 = Program.Builder.reserve_block b in
  let blk1 = Program.Builder.reserve_block b in
  (* let-bound so micro-op ids follow program order. *)
  let u0 = alu b ~dst:0 ~srcs:[] in
  let u1 = alu b ~dst:0 ~srcs:[ 0 ] in
  let u2 = alu b ~dst:1 ~srcs:[] in
  Program.Builder.define_block b blk0 [ u0; u1; u2 ] ~succs:[ blk1 ];
  let u3 = alu b ~dst:1 ~srcs:[ 1 ] in
  let u4 = alu b ~dst:2 ~srcs:[ 0; 1 ] in
  Program.Builder.define_block b blk1 [ u3; u4 ] ~succs:[];
  Program.Builder.finish b ~entry:blk0

let no_profile _ = None

let ob_compile program =
  Ob.compile ~program ~likely:no_profile ~clusters:2
    ~region_uops:params.region_uops

let rhop_compile program =
  Rhop.compile ~program ~likely:no_profile ~clusters:2
    ~region_uops:params.region_uops

let vc_compile program =
  Vc_partition.compile ~program ~likely:no_profile ~virtual_clusters:2
    ~region_uops:params.region_uops ~crit_min_scale:params.crit_min_scale
    ~max_chain:params.max_chain

let test_ob_compile_covers_program () =
  let program = small_program () in
  let annot = ob_compile program in
  Alcotest.(check string) "scheme" "ob" annot.Annot.scheme;
  Array.iter
    (fun c -> check_bool "assigned" true (c >= 0 && c < 2))
    annot.Annot.cluster_of

(* ---- RHOP ------------------------------------------------------------------- *)

let test_rhop_weights_shape () =
  let g = Ddg.build (two_chain_uops ()) in
  let wg = Rhop.weights_of_ddg g in
  check_int "one node per uop" 6 (Clusteer_graphpart.Wgraph.node_count wg);
  (* chain edges have low slack -> heavy weight *)
  check_bool "chain edge heavy" true
    (Clusteer_graphpart.Wgraph.edge_weight wg 0 1 > 1.0)

let test_rhop_assign_balances () =
  let g = Ddg.build (two_chain_uops ()) in
  let a = Rhop.assign_region g ~clusters:2 in
  let count p = Array.fold_left (fun acc x -> if x = p then acc + 1 else acc) 0 a in
  check_int "balanced halves" 3 (count 0);
  check_int "balanced halves" 3 (count 1)

let test_rhop_compile_covers_program () =
  let program = small_program () in
  let annot = rhop_compile program in
  Alcotest.(check string) "scheme" "rhop" annot.Annot.scheme;
  Array.iter
    (fun c -> check_bool "assigned" true (c >= 0 && c < 2))
    annot.Annot.cluster_of

(* ---- VC partition -------------------------------------------------------------- *)

let test_vc_assign_respects_dependences () =
  let g = Ddg.build (two_chain_uops ()) in
  let a =
    Vc_partition.assign_region g ~virtual_clusters:2
      ~crit_min_scale:params.crit_min_scale
  in
  check_int "chain 1 in one vc" a.(0) a.(1);
  check_int "chain 1 in one vc" a.(1) a.(2);
  check_int "chain 2 in one vc" a.(3) a.(4)

let test_vc_compile_produces_leaders () =
  let program = small_program () in
  let annot = vc_compile program in
  Alcotest.(check string) "scheme" "vc" annot.Annot.scheme;
  check_int "vcs" 2 annot.Annot.virtual_clusters;
  Array.iter (fun vc -> check_bool "vc assigned" true (vc >= 0 && vc < 2)) annot.Annot.vc_of;
  check_bool "has chains" true (Annot.chain_count annot >= 1);
  (* The first micro-op of the program must lead a chain. *)
  check_bool "first uop leads" true annot.Annot.leader.(0)

let test_vc_assign_within_range () =
  let g = Ddg.build (two_chain_uops ()) in
  let a =
    Vc_partition.assign_region g ~virtual_clusters:4
      ~crit_min_scale:params.crit_min_scale
  in
  Array.iter (fun vc -> check_bool "in range" true (vc >= 0 && vc < 4)) a

(* ---- Chains ----------------------------------------------------------------------- *)

let region_of_program program =
  List.hd (Region.build ~program ~likely:no_profile ~max_uops:1000)

let test_chains_marking () =
  let program = small_program () in
  let region = region_of_program program in
  let annot = Annot.create_virtual ~scheme:"vc" ~virtual_clusters:2 ~uop_count:5 in
  (* vc pattern: 0 0 1 1 0 -> leaders at positions 0, 2, 4 *)
  let pattern = [| 0; 0; 1; 1; 0 |] in
  Array.iteri (fun i vc -> annot.Annot.vc_of.(i) <- vc) pattern;
  Chains.mark_region ~max_chain:0 annot region;
  Alcotest.(check (array bool)) "leaders"
    [| true; false; true; false; true |]
    annot.Annot.leader;
  check_int "chain count" 3 (Annot.chain_count annot)

let test_chains_of_region () =
  let program = small_program () in
  let region = region_of_program program in
  let annot = Annot.create_virtual ~scheme:"vc" ~virtual_clusters:2 ~uop_count:5 in
  Array.iteri (fun i _ -> annot.Annot.vc_of.(i) <- (if i < 2 then 0 else 1)) annot.Annot.vc_of;
  Chains.mark_region ~max_chain:0 annot region;
  let chains = Chains.chains_of_region ~max_chain:0 annot region in
  Alcotest.(check (list (list int))) "chains" [ [ 0; 1 ]; [ 2; 3; 4 ] ] chains

let test_chains_single_vc_single_chain () =
  let program = small_program () in
  let region = region_of_program program in
  let annot = Annot.create_virtual ~scheme:"vc" ~virtual_clusters:1 ~uop_count:5 in
  Array.iteri (fun i _ -> annot.Annot.vc_of.(i) <- 0) annot.Annot.vc_of;
  Chains.mark_region ~max_chain:0 annot region;
  check_int "one chain" 1 (Annot.chain_count annot)

(* ---- Criticality hints ------------------------------------------------------------- *)

let test_crit_hints_marks_critical_chain () =
  (* A long serial chain next to one independent op: only the chain is
     critical. *)
  let b = Program.Builder.create ~name:"ch" ~nregs_per_class:8 () in
  let u0 = alu b ~dst:0 ~srcs:[] in
  let u1 = alu b ~dst:0 ~srcs:[ 0 ] in
  let u2 = alu b ~dst:0 ~srcs:[ 0 ] in
  let lone = alu b ~dst:1 ~srcs:[] in
  let blk = Program.Builder.add_block b [ u0; u1; u2; lone ] ~succs:[] in
  let program = Program.Builder.finish b ~entry:blk in
  let critical =
    Crit_hints.compute ~program ~likely:no_profile
      ~region_uops:params.region_uops ~slack_threshold:0
  in
  Alcotest.(check (array bool)) "chain critical, lone not"
    [| true; true; true; false |]
    critical

let test_crit_hints_threshold_widens () =
  let b = Program.Builder.create ~name:"ch2" ~nregs_per_class:8 () in
  let u0 = alu b ~dst:0 ~srcs:[] in
  let u1 = alu b ~dst:0 ~srcs:[ 0 ] in
  let lone = alu b ~dst:1 ~srcs:[] in
  let blk = Program.Builder.add_block b [ u0; u1; lone ] ~succs:[] in
  let program = Program.Builder.finish b ~entry:blk in
  let hints slack_threshold =
    Crit_hints.compute ~program ~likely:no_profile
      ~region_uops:params.region_uops ~slack_threshold
  in
  let tight = hints 0 and loose = hints 10 in
  check_bool "lone op not critical at 0" false tight.(2);
  check_bool "lone op critical at 10" true loose.(2)

(* ---- Diagnostics -------------------------------------------------------------------- *)

let test_diagnostics_counts () =
  let program = small_program () in
  let annot = vc_compile program in
  let d =
    Diagnostics.of_annot ~program ~likely:no_profile ~annot
      ~region_uops:params.region_uops ~max_chain:params.max_chain
  in
  check_int "uops" program.Program.uop_count d.Diagnostics.static_uops;
  check_int "vc population sums" program.Program.uop_count
    (Array.fold_left ( + ) 0 d.Diagnostics.vc_population);
  check_int "chains match annot" (Annot.chain_count annot) d.Diagnostics.chains;
  check_bool "edges partitioned" true
    (d.Diagnostics.cross_vc_edges >= 0 && d.Diagnostics.intra_vc_edges >= 0);
  check_bool "mean length sane" true
    (d.Diagnostics.mean_chain_length >= 1.0
    && d.Diagnostics.max_chain_length >= 1)

let test_diagnostics_requires_vcs () =
  let program = small_program () in
  Alcotest.check_raises "no vcs"
    (Invalid_argument "Diagnostics.of_annot: annotation has no virtual clusters")
    (fun () ->
      ignore
        (Diagnostics.of_annot ~program ~likely:no_profile
           ~annot:(Annot.none ~uop_count:program.Program.uop_count)
           ~region_uops:params.region_uops ~max_chain:params.max_chain))

(* ---- Paper Figure 3 worked example ---------------------------------------------------- *)

let test_figure3_chain_semantics () =
  (* The paper's Fig. 3: a DDG partitioned into two virtual clusters
     where the chain leaders are the first program-order micro-op of
     each same-vc run — nodes A, B and E in the figure. We encode six
     micro-ops A..F with the vc pattern A:1 B:2 C:2 D:2 E:1 F:1, giving
     chains {A}, {B,C,D}, {E,F} led by A, B and E. *)
  let b = Program.Builder.create ~name:"fig3" ~nregs_per_class:8 () in
  let a = alu b ~dst:0 ~srcs:[] in
  let b_ = alu b ~dst:1 ~srcs:[] in
  let c = alu b ~dst:2 ~srcs:[ 1 ] in
  let d = alu b ~dst:3 ~srcs:[ 1 ] in
  let e = alu b ~dst:4 ~srcs:[ 0 ] in
  let f = alu b ~dst:5 ~srcs:[ 4; 2 ] in
  let blk = Program.Builder.add_block b [ a; b_; c; d; e; f ] ~succs:[] in
  let program = Program.Builder.finish b ~entry:blk in
  let annot = Annot.create_virtual ~scheme:"vc" ~virtual_clusters:2 ~uop_count:6 in
  Array.iteri
    (fun i vc -> annot.Annot.vc_of.(i) <- vc)
    [| 0; 1; 1; 1; 0; 0 |];
  let region =
    List.hd (Region.build ~program ~likely:no_profile ~max_uops:100)
  in
  Chains.mark_region ~max_chain:0 annot region;
  Alcotest.(check (array bool)) "leaders are A, B, E"
    [| true; true; false; false; true; false |]
    annot.Annot.leader;
  Alcotest.(check (list (list int))) "three chains"
    [ [ 0 ]; [ 1; 2; 3 ]; [ 4; 5 ] ]
    (Chains.chains_of_region ~max_chain:0 annot region);
  Annot.validate annot ~clusters:2

(* ---- Every configuration through prepare ------------------------------------------- *)

(* [Configuration.prepare] is the one driver of the passes: every
   configuration's annotation validates, and the hardware-only ones
   get an empty annotation. The match has no wildcard, so a new
   configuration must be classified here. *)
let hardware_only : Configuration.t -> bool = function
  | Op | One_cluster | Op_parallel | Dep | Crit -> true
  | Ob | Rhop | Vc _ -> false

let all_configurations =
  Configuration.
    [
      Op;
      One_cluster;
      Ob;
      Rhop;
      Vc { virtual_clusters = 2 };
      Vc { virtual_clusters = 4 };
      Op_parallel;
      Dep;
      Crit;
    ]

let prepare config =
  let annot, _policy =
    Configuration.prepare config ~program:(small_program ())
      ~likely:no_profile ~clusters:2 ~params ()
  in
  annot

let test_prepare_none_empty () =
  List.iter
    (fun config ->
      let name = Configuration.name config in
      let annot = prepare config in
      check_bool (name ^ ": no assignments") true
        (Array.for_all (fun c -> c = -1) annot.Annot.cluster_of);
      check_bool (name ^ ": no vcs") true
        (Array.for_all (fun v -> v = -1) annot.Annot.vc_of))
    (List.filter hardware_only all_configurations)

let test_prepare_all_validate () =
  List.iter
    (fun config -> Annot.validate (prepare config) ~clusters:2)
    all_configurations

(* ---- Properties over random programs --------------------------------------------------- *)

let arb_profile_seedling =
  (* Random straight-line DDGs via the same generator style as test_ddg. *)
  QCheck.make
    QCheck.Gen.(
      sized (fun size st ->
          let n = max 2 (min size 40) in
          let b = Program.Builder.create ~name:"q" ~nregs_per_class:8 () in
          let uops =
            List.init n (fun _ ->
                let dst = int_bound 5 st in
                let nsrcs = int_bound 2 st in
                let srcs = Array.init nsrcs (fun _ -> Reg.int (int_bound 5 st)) in
                Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int dst) ~srcs ())
          in
          let blk = Program.Builder.add_block b uops ~succs:[] in
          Program.Builder.finish b ~entry:blk))

let prop_vc_chain_leaders_iff_vc_change =
  QCheck.Test.make ~name:"leaders mark exactly vc changes" ~count:150
    arb_profile_seedling (fun program ->
      let annot = vc_compile program in
      let ok = ref true in
      let prev = ref (-2) in
      Program.iter_uops program (fun u ->
          let id = u.Uop.id in
          let vc = annot.Annot.vc_of.(id) in
          let expected_leader = vc <> !prev in
          if annot.Annot.leader.(id) <> expected_leader then ok := false;
          prev := vc);
      !ok)

let prop_all_passes_total =
  QCheck.Test.make ~name:"every pass assigns every micro-op" ~count:100
    arb_profile_seedling (fun program ->
      let ob = ob_compile program in
      let rhop = rhop_compile program in
      let vc = vc_compile program in
      Array.for_all (fun c -> c >= 0) ob.Annot.cluster_of
      && Array.for_all (fun c -> c >= 0) rhop.Annot.cluster_of
      && Array.for_all (fun v -> v >= 0) vc.Annot.vc_of)

let prop_rhop_balance_bounded =
  QCheck.Test.make ~name:"rhop partitions are roughly balanced" ~count:100
    arb_profile_seedling (fun program ->
      let annot = rhop_compile program in
      let n = Array.length annot.Annot.cluster_of in
      let c0 =
        Array.fold_left (fun acc c -> if c = 0 then acc + 1 else acc) 0
          annot.Annot.cluster_of
      in
      (* within 25% imbalance + slack for tiny regions *)
      abs ((2 * c0) - n) <= max 2 (n / 3))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "clusteer_compiler"
    [
      ( "estimate",
        [
          Alcotest.test_case "dependence preference" `Quick test_estimate_dependence_prefers_producer_part;
          Alcotest.test_case "contention spreads roots" `Quick test_estimate_contention_spreads_roots;
          Alcotest.test_case "place commits" `Quick test_estimate_place_commits;
          Alcotest.test_case "unplaced pred rejected" `Quick test_estimate_requires_placed_preds;
          Alcotest.test_case "double place rejected" `Quick test_estimate_double_place_rejected;
        ] );
      ( "ob",
        [
          Alcotest.test_case "keeps chains together" `Quick test_ob_keeps_chains_together;
          Alcotest.test_case "spreads independent chains" `Quick test_ob_spreads_independent_chains;
          Alcotest.test_case "compile covers program" `Quick test_ob_compile_covers_program;
        ] );
      ( "rhop",
        [
          Alcotest.test_case "weights shape" `Quick test_rhop_weights_shape;
          Alcotest.test_case "balances" `Quick test_rhop_assign_balances;
          Alcotest.test_case "compile covers program" `Quick test_rhop_compile_covers_program;
        ] );
      ( "vc",
        [
          Alcotest.test_case "respects dependences" `Quick test_vc_assign_respects_dependences;
          Alcotest.test_case "produces leaders" `Quick test_vc_compile_produces_leaders;
          Alcotest.test_case "vc range" `Quick test_vc_assign_within_range;
        ] );
      ( "chains",
        [
          Alcotest.test_case "marking" `Quick test_chains_marking;
          Alcotest.test_case "chains of region" `Quick test_chains_of_region;
          Alcotest.test_case "single vc single chain" `Quick test_chains_single_vc_single_chain;
        ] );
      ( "crit-hints",
        [
          Alcotest.test_case "marks critical chain" `Quick test_crit_hints_marks_critical_chain;
          Alcotest.test_case "threshold widens" `Quick test_crit_hints_threshold_widens;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "counts" `Quick test_diagnostics_counts;
          Alcotest.test_case "requires vcs" `Quick test_diagnostics_requires_vcs;
          Alcotest.test_case "figure 3 semantics" `Quick test_figure3_chain_semantics;
        ] );
      ( "passes",
        [
          Alcotest.test_case "none is empty" `Quick test_prepare_none_empty;
          Alcotest.test_case "all validate" `Quick test_prepare_all_validate;
          qc prop_vc_chain_leaders_iff_vc_change;
          qc prop_all_passes_total;
          qc prop_rhop_balance_bounded;
        ] );
    ]
