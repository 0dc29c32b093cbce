(* End-to-end integration tests: full compile-steer-simulate pipelines
   across configurations, checking the cross-cutting invariants the
   paper's evaluation relies on. *)

open Clusteer_uarch
open Clusteer_workloads
module Harness = Clusteer_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let uops = 4000

let bench name = { (Spec2000.find name) with Profile.phases = 1 }

let run_configs ?(machine = Config.default_2c) profile configs =
  let point = List.hd (Pinpoints.points profile) in
  (Harness.Runner.run_point ~machine ~configs ~uops point).Harness.Runner.runs

let all_2c = Clusteer.Configuration.table3 ~clusters:2
let all_4c = Clusteer.Configuration.table3 ~clusters:4

(* ---- basic invariants across all configurations --------------------------- *)

let check_commits name stats =
  (* The commit stage retires up to commit-width micro-ops in the final
     cycle, so the count may overshoot slightly. *)
  check_bool (name ^ " commits") true
    (stats.Stats.committed >= uops && stats.Stats.committed < uops + 8)

let test_all_configs_commit_exactly () =
  List.iter
    (fun (name, stats) -> check_commits name stats)
    (run_configs (bench "gzip-1") all_2c)

let test_copies_executed_bounded () =
  List.iter
    (fun (name, stats) ->
      check_bool
        (name ^ " executed <= generated+inflight")
        true
        (stats.Stats.copies_executed <= stats.Stats.copies_generated + 64))
    (run_configs (bench "galgel") all_2c)

let test_one_cluster_never_copies () =
  List.iter
    (fun profile ->
      let runs = run_configs profile [ Clusteer.Configuration.One_cluster ] in
      let _, stats = List.hd runs in
      check_int "no copies" 0 stats.Stats.copies_generated;
      check_int "cluster 1 idle" 0 stats.Stats.per_cluster_dispatched.(1))
    [ bench "gzip-1"; bench "swim" ]

let test_dispatch_conservation () =
  (* Per-cluster dispatch counts sum to the total (trace-driven: no
     squashes). Committed may exceed dispatched by at most the ROB
     occupancy at the warmup reset: micro-ops dispatched before the
     reset (not counted) commit after it (counted). *)
  List.iter
    (fun (name, stats) ->
      let total = Array.fold_left ( + ) 0 stats.Stats.per_cluster_dispatched in
      check_int (name ^ " dispatch = commit") stats.Stats.dispatched total;
      check_bool (name ^ " committed <= dispatched + rob") true
        (stats.Stats.committed
        <= stats.Stats.dispatched + Config.default_2c.Config.rob_size))
    (run_configs (bench "crafty") all_2c)

let test_determinism_across_runs () =
  let once () =
    List.map (fun (n, s) -> (n, s.Stats.cycles)) (run_configs (bench "twolf") all_2c)
  in
  Alcotest.(check (list (pair string int))) "bit-identical reruns" (once ()) (once ())

(* ---- the paper's headline orderings ----------------------------------------- *)

let cycles_of runs name =
  match List.assoc_opt name runs with
  | Some s -> s.Stats.cycles
  | None -> Alcotest.fail ("missing config " ^ name)

let test_steering_matters_on_ilp_benchmarks () =
  (* On high-ILP benchmarks the naive one-cluster scheme must clearly
     lose to every real steering scheme. *)
  List.iter
    (fun profile ->
      let runs = run_configs profile all_2c in
      let one = cycles_of runs "one-cluster" in
      List.iter
        (fun other ->
          check_bool
            (profile.Profile.name ^ ": one-cluster worst vs " ^ other)
            true
            (one > cycles_of runs other))
        [ "op"; "vc2" ])
    [ bench "galgel"; bench "crafty"; bench "sixtrack" ]

let test_vc_close_to_op () =
  (* The headline claim: the hybrid tracks the hardware-only baseline
     closely (paper: within a few percent on average). Allow per-
     benchmark slack; the suite-level averages are checked by the
     bench harness. *)
  List.iter
    (fun profile ->
      let runs = run_configs profile all_2c in
      let op = cycles_of runs "op" and vc = cycles_of runs "vc2" in
      let gap = float_of_int (vc - op) /. float_of_int op in
      check_bool (profile.Profile.name ^ ": vc within 15% of op") true
        (gap < 0.15))
    [ bench "gzip-1"; bench "galgel"; bench "swim"; bench "twolf" ]

let test_4cluster_machine_runs_all_configs () =
  List.iter
    (fun (name, stats) ->
      check_commits name stats;
      check_int "four clusters tracked" 4
        (Array.length stats.Stats.per_cluster_dispatched))
    (run_configs ~machine:Config.default_4c (bench "galgel") all_4c)

let test_vc2_on_4_clusters_uses_at_most_two_at_once () =
  (* VC(2->4): only two VCs exist, but remapping over time can still
     spread work over all four clusters. All dispatches must land
     somewhere, and cluster counts must sum correctly. *)
  let runs =
    run_configs ~machine:Config.default_4c (bench "swim")
      [ Clusteer.Configuration.Vc { virtual_clusters = 2 } ]
  in
  let _, stats = List.hd runs in
  let total = Array.fold_left ( + ) 0 stats.Stats.per_cluster_dispatched in
  check_int "dispatch conserved" stats.Stats.dispatched total

let test_op_parallel_never_beats_op_much () =
  (* §2.1: the parallel (stale-location) implementation generates more
     copies than the sequential one. *)
  List.iter
    (fun profile ->
      let runs =
        run_configs profile
          [ Clusteer.Configuration.Op; Clusteer.Configuration.Op_parallel ]
      in
      let op = List.assoc "op" runs and par = List.assoc "op-parallel" runs in
      check_bool
        (profile.Profile.name ^ ": parallel steering generates more copies")
        true
        (par.Stats.copies_generated >= op.Stats.copies_generated))
    [ bench "gzip-1"; bench "galgel"; bench "gcc-1" ]

let test_static_schemes_fill_both_clusters () =
  List.iter
    (fun config ->
      let runs = run_configs (bench "swim") [ config ] in
      let _, stats = List.hd runs in
      check_bool
        (Clusteer.Configuration.name config ^ " uses both clusters")
        true
        (stats.Stats.per_cluster_dispatched.(0) > 0
        && stats.Stats.per_cluster_dispatched.(1) > 0))
    [ Clusteer.Configuration.Ob; Clusteer.Configuration.Rhop ]

let test_hybrid_api_end_to_end () =
  (* The paper's hybrid (compiler VC partition + hardware mapping
     table) end to end through the one simulation path, on an explicit
     workload and seed. *)
  let w = Synth.build (bench "mesa") in
  let runs =
    Harness.Runner.run_workload ~seed:42 ~warmup:0 ~machine:Config.default_2c
      ~configs:[ Clusteer.Configuration.Vc { virtual_clusters = 2 } ]
      ~uops:2000 w
  in
  let stats = List.assoc "vc2" runs in
  check_bool "commits" true
    (stats.Stats.committed >= 2000 && stats.Stats.committed < 2008);
  check_bool "produces cycles" true (stats.Stats.cycles > 0)

let test_topologies_run_and_rank () =
  (* All three interconnects execute correctly; the shared bus can
     never beat the dedicated point-to-point links. *)
  let profile = bench "galgel" in
  let point = List.hd (Pinpoints.points profile) in
  let cycles topology =
    let machine = { Config.default_4c with Config.topology } in
    let runs =
      (Harness.Runner.run_point ~machine
         ~configs:[ Clusteer.Configuration.Vc { virtual_clusters = 2 } ]
         ~uops point)
        .Harness.Runner.runs
    in
    (snd (List.hd runs)).Stats.cycles
  in
  let p2p = cycles (Clusteer_topo.Topology.p2p ~clusters:4 ()) in
  let bus = cycles (Clusteer_topo.Topology.bus ~clusters:4 ()) in
  let ring = cycles (Clusteer_topo.Topology.ring ~clusters:4 ()) in
  check_bool "bus not faster than p2p" true (bus >= p2p);
  check_bool "ring sane" true (ring > 0)

let test_extended_baselines_rank () =
  (* dep sits between OP and one-cluster on a steering-sensitive
     benchmark. *)
  let profile = bench "galgel" in
  let point = List.hd (Pinpoints.points profile) in
  let runs =
    (Harness.Runner.run_point ~machine:Config.default_2c
       ~configs:
         [
           Clusteer.Configuration.Op;
           Clusteer.Configuration.Dep;
           Clusteer.Configuration.One_cluster;
         ]
       ~uops point)
      .Harness.Runner.runs
  in
  let c name = (List.assoc name runs).Stats.cycles in
  check_bool "one-cluster worst" true
    (c "one-cluster" > c "dep" && c "one-cluster" > c "op");
  check_bool "dep competitive with op" true
    (float_of_int (c "dep") < 1.35 *. float_of_int (c "op"))

(* Property: random small workload profiles run through the full
   pipeline under every configuration without violating the core
   invariants. *)
let arb_mini_profile =
  QCheck.make
    QCheck.Gen.(
      map
        (fun (seed, ilp, mem10, fp10, hard10) ->
          {
            (Spec2000.find "gzip-1") with
            Profile.name = Printf.sprintf "prop-%d" seed;
            seed;
            ilp = 1 + ilp;
            mem_ratio = float_of_int mem10 /. 20.0;
            fp_ratio = float_of_int fp10 /. 20.0;
            hard_branch_frac = float_of_int hard10 /. 40.0;
            footprint_kb = 64;
            phases = 1;
          })
        (tup5 (int_bound 10_000) (int_bound 5) (int_bound 10) (int_bound 10)
           (int_bound 10)))

let prop_pipeline_invariants =
  QCheck.Test.make ~name:"pipeline invariants on random profiles" ~count:25
    arb_mini_profile (fun profile ->
      Profile.validate profile;
      let point = List.hd (Pinpoints.points profile) in
      let runs =
        (Harness.Runner.run_point ~machine:Config.default_2c ~configs:all_2c
           ~uops:1500 point)
          .Harness.Runner.runs
      in
      List.for_all
        (fun (_, stats) ->
          stats.Stats.committed >= 1500
          && stats.Stats.cycles > 0
          (* warmup resets counters mid-flight: copies generated before
             the reset may execute after it, up to the copy-queue +
             link capacity *)
          && stats.Stats.copies_executed <= stats.Stats.copies_generated + 64
          && Array.fold_left ( + ) 0 stats.Stats.per_cluster_dispatched
             = stats.Stats.dispatched)
        runs)

let test_fig5_shape_regression () =
  (* Pin the reproduction's headline shape on a fixed 8-benchmark
     subset: one-cluster is clearly worst, the software-only schemes
     sit between it and OP, and the hybrid tracks OP within noise. *)
  let names =
    [ "gzip-1"; "gcc-1"; "crafty"; "galgel"; "swim"; "art-1"; "sixtrack"; "lucas" ]
  in
  let profiles = List.map (fun n -> { (Spec2000.find n) with Profile.phases = 1 }) names in
  let totals = Hashtbl.create 8 in
  List.iter
    (fun profile ->
      let point = List.hd (Pinpoints.points profile) in
      let runs =
        (Harness.Runner.run_point ~machine:Config.default_2c ~configs:all_2c
           ~uops:6000 point)
          .Harness.Runner.runs
      in
      List.iter
        (fun (name, stats) ->
          Hashtbl.replace totals name
            (stats.Stats.cycles
            + Option.value ~default:0 (Hashtbl.find_opt totals name)))
        runs)
    profiles;
  let cycles name = Hashtbl.find totals name in
  let pct name = float_of_int (cycles name) /. float_of_int (cycles "op") -. 1.0 in
  check_bool "one-cluster clearly worst" true (pct "one-cluster" > 0.10);
  check_bool "ob between" true (pct "ob" > 0.0 && pct "ob" < pct "one-cluster");
  check_bool "rhop between" true
    (pct "rhop" > -0.02 && pct "rhop" < pct "one-cluster");
  check_bool "vc tracks op" true (abs_float (pct "vc2") < 0.04);
  check_bool "vc beats ob" true (pct "vc2" < pct "ob")

let test_configuration_names_unique () =
  let names = List.map Clusteer.Configuration.name (all_2c @ all_4c) in
  let distinct = List.sort_uniq compare names in
  (* op/ob/rhop/vc2 shared between machine sizes, vc4 and one-cluster
     unique to one of them: 6 distinct configurations overall. *)
  check_int "distinct configurations" 6 (List.length distinct)

let () =
  Alcotest.run "clusteer_integration"
    [
      ( "invariants",
        [
          Alcotest.test_case "all configs commit" `Slow test_all_configs_commit_exactly;
          Alcotest.test_case "copies bounded" `Slow test_copies_executed_bounded;
          Alcotest.test_case "one-cluster no copies" `Slow test_one_cluster_never_copies;
          Alcotest.test_case "dispatch conservation" `Slow test_dispatch_conservation;
          Alcotest.test_case "determinism" `Slow test_determinism_across_runs;
        ] );
      ( "paper-shape",
        [
          Alcotest.test_case "steering matters" `Slow test_steering_matters_on_ilp_benchmarks;
          Alcotest.test_case "vc close to op" `Slow test_vc_close_to_op;
          Alcotest.test_case "4-cluster configs" `Slow test_4cluster_machine_runs_all_configs;
          Alcotest.test_case "vc2 on 4 clusters" `Slow test_vc2_on_4_clusters_uses_at_most_two_at_once;
          Alcotest.test_case "parallel steering copies" `Slow test_op_parallel_never_beats_op_much;
          Alcotest.test_case "static fills clusters" `Slow test_static_schemes_fill_both_clusters;
          Alcotest.test_case "hybrid api" `Slow test_hybrid_api_end_to_end;
          Alcotest.test_case "topologies" `Slow test_topologies_run_and_rank;
          Alcotest.test_case "extended baselines" `Slow test_extended_baselines_rank;
          Alcotest.test_case "fig5 shape regression" `Slow test_fig5_shape_regression;
          Alcotest.test_case "config names" `Quick test_configuration_names_unique;
          QCheck_alcotest.to_alcotest prop_pipeline_invariants;
        ] );
    ]
