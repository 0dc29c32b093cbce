(* Tests for the experiment harness: metrics arithmetic, the runner and
   the per-figure derivations on a miniature suite. *)

open Clusteer_uarch
open Clusteer_workloads
module Harness = Clusteer_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let stats_with ?(cycles = 100) ?(committed = 100) ?(copies = 0) ?(stalls = 0) ()
    =
  let s = Stats.create ~clusters:2 in
  s.Stats.cycles <- cycles;
  s.Stats.committed <- committed;
  s.Stats.copies_generated <- copies;
  s.Stats.stall_iq_full <- stalls;
  s

(* ---- Metrics ----------------------------------------------------------- *)

let test_metrics_slowdown () =
  let base = stats_with ~cycles:100 () in
  check_float "25% slower" 25.0
    (Harness.Metrics.slowdown_pct ~baseline:base (stats_with ~cycles:125 ()));
  check_float "equal" 0.0
    (Harness.Metrics.slowdown_pct ~baseline:base (stats_with ~cycles:100 ()));
  check_float "faster is negative" (-10.0)
    (Harness.Metrics.slowdown_pct ~baseline:base (stats_with ~cycles:90 ()))

let test_metrics_speedup () =
  check_float "vc 25% faster" 25.0
    (Harness.Metrics.speedup_pct
       ~of_:(stats_with ~cycles:100 ())
       ~over:(stats_with ~cycles:125 ()))

let test_metrics_copy_reduction () =
  check_float "halved" 50.0
    (Harness.Metrics.copy_reduction_pct
       ~of_:(stats_with ~copies:50 ())
       ~over:(stats_with ~copies:100 ()));
  check_float "zero base" 0.0
    (Harness.Metrics.copy_reduction_pct
       ~of_:(stats_with ~copies:50 ())
       ~over:(stats_with ~copies:0 ()));
  check_float "negative when worse" (-100.0)
    (Harness.Metrics.copy_reduction_pct
       ~of_:(stats_with ~copies:100 ())
       ~over:(stats_with ~copies:50 ()))

let test_metrics_balance_improvement () =
  check_float "fewer stalls" 40.0
    (Harness.Metrics.balance_improvement_pct
       ~of_:(stats_with ~stalls:60 ())
       ~over:(stats_with ~stalls:100 ()))

(* ---- Runner -------------------------------------------------------------- *)

let tiny_profile =
  { (Spec2000.find "gzip-1") with Profile.name = "tiny"; phases = 2 }

let configs2 = Clusteer.Configuration.table3 ~clusters:2

let test_runner_point_shape () =
  let point = List.hd (Pinpoints.points tiny_profile) in
  let result =
    Harness.Runner.run_point ~machine:Config.default_2c ~configs:configs2
      ~uops:2000 point
  in
  check_int "five configs" 5 (List.length result.Harness.Runner.runs);
  List.iter
    (fun (name, stats) ->
      check_bool "named" true (String.length name > 0);
      check_bool "committed" true
        (stats.Stats.committed >= 2000 && stats.Stats.committed < 2008))
    result.Harness.Runner.runs

let test_runner_same_trace_all_configs () =
  (* Every configuration must replay the identical dynamic stream: the
     committed counts and load/store totals agree. *)
  let point = List.hd (Pinpoints.points tiny_profile) in
  let result =
    Harness.Runner.run_point ~machine:Config.default_2c ~configs:configs2
      ~uops:2000 point
  in
  (* loads count at dispatch, so the in-flight tail differs slightly
     between configurations, but the replayed stream is the same. *)
  let loads = List.map (fun (_, s) -> s.Stats.loads) result.Harness.Runner.runs in
  let lo = List.fold_left min max_int loads
  and hi = List.fold_left max 0 loads in
  check_bool "loads agree within the in-flight window" true (hi - lo <= 64)

let test_runner_params_reach_policy () =
  (* [Runner.run_workload ~params] must steer exactly like an engine
     built by hand from the compiler pass and the mapping table with
     the same knobs — the reference the bench ablations used to
     hand-roll. *)
  let w = Synth.build (Spec2000.find "galgel") in
  let run_hand ~remap_threshold ~region_uops =
    let annot =
      Clusteer_compiler.Vc_partition.compile ~program:w.Synth.program
        ~likely:w.Synth.likely ~virtual_clusters:2 ~region_uops ()
    in
    let policy =
      Clusteer_steer.Vc_map.make ~remap_threshold ~annot ~clusters:2 ()
    in
    let prewarm =
      Array.to_list (Array.map Clusteer_trace.Mem_model.extent w.Synth.streams)
    in
    let engine =
      Engine.create ~config:Config.default_2c ~annot ~policy ~prewarm ()
    in
    let gen = Synth.trace w ~seed:1 in
    Engine.run ~warmup:1000 engine
      ~source:(fun () -> Clusteer_trace.Tracegen.next gen)
      ~uops:2000
  in
  let run_harness ~remap_threshold ~region_uops =
    let params =
      {
        Clusteer.Configuration.default_params with
        Clusteer.Configuration.remap_threshold;
        region_uops;
      }
    in
    Harness.Runner.run_workload ~seed:1 ~warmup:1000 ~params
      ~machine:Config.default_2c
      ~configs:[ Clusteer.Configuration.Vc { virtual_clusters = 2 } ]
      ~uops:2000 w
    |> List.assoc "vc2"
  in
  let results =
    List.concat_map
      (fun remap_threshold ->
        List.map
          (fun region_uops ->
            let hand = run_hand ~remap_threshold ~region_uops in
            check_bool
              (Printf.sprintf "threshold %d, %d-uop regions" remap_threshold
                 region_uops)
              true
              (Stats.equal hand (run_harness ~remap_threshold ~region_uops));
            hand)
          [ 32; 512 ])
      [ 0; 32 ]
  in
  (* Each knob must move the result, or the equalities prove nothing. *)
  match results with
  | [ t0_r32; t0_r512; t32_r32; _ ] ->
      check_bool "threshold matters" false (Stats.equal t0_r32 t32_r32);
      check_bool "region size matters" false (Stats.equal t0_r32 t0_r512)
  | _ -> assert false

let test_runner_default_warmup_clamps () =
  (* Half the measured length within [2k, 10k], but always strictly
     below the budget: the old 2,000-uop floor made tiny runs warm up
     longer than they measured. *)
  check_int "normal range" 3000 (Harness.Runner.default_warmup 6000);
  check_int "capped" 10_000 (Harness.Runner.default_warmup 100_000);
  check_int "floor" 2000 (Harness.Runner.default_warmup 2500);
  check_int "tiny budget" 499 (Harness.Runner.default_warmup 500);
  check_int "single uop" 0 (Harness.Runner.default_warmup 1);
  check_int "degenerate" 0 (Harness.Runner.default_warmup 0);
  for uops = 1 to 50 do
    check_bool "strictly below budget" true
      (Harness.Runner.default_warmup uops < uops)
  done

let test_runner_tiny_run_completes () =
  (* Regression: with the old floor, a 200-uop run spent 2,000 uops
     warming up; now it completes measuring most of its budget. *)
  let point = List.hd (Pinpoints.points tiny_profile) in
  let result =
    Harness.Runner.run_point ~machine:Config.default_2c
      ~configs:[ Clusteer.Configuration.Op ] ~uops:200 point
  in
  let _, stats = List.hd result.Harness.Runner.runs in
  check_bool "commits its budget" true (stats.Stats.committed >= 200)

let test_runner_measured_and_profiled () =
  (* [measured] wraps a run with wall-clock and GC deltas; a profiled
     run feeds the phase-timing histograms and the committed-uop
     counter the ledger divides by. *)
  let module Obs = Clusteer_obs in
  let registry = Obs.Counters.create () in
  let prof = Obs.Profile.create ~registry () in
  let point = List.hd (Pinpoints.points tiny_profile) in
  let result, wall_s, gc =
    Harness.Runner.measured (fun () ->
        Harness.Runner.run_point ~registry ~profile:prof
          ~machine:Config.default_2c
          ~configs:
            [
              Clusteer.Configuration.Op;
              Clusteer.Configuration.Vc { virtual_clusters = 2 };
            ]
          ~uops:1000 point)
  in
  check_int "both configs ran" 2 (List.length result.Harness.Runner.runs);
  check_bool "wall clock advanced" true (wall_s >= 0.0);
  check_bool "allocation accounted" true (gc.Obs.Ledger.minor_words > 0.0);
  let committed =
    Obs.Counters.value
      (Obs.Counters.counter ~registry "harness.uops_committed")
  in
  let stats_sum =
    List.fold_left
      (fun a (_, s) -> a + s.Stats.committed)
      0 result.Harness.Runner.runs
  in
  check_int "committed counter matches stats" stats_sum committed;
  check_bool "uop attribution sane" true (committed >= 2000);
  (* One flush per engine phase per run: two configs = two samples. *)
  check_int "phase histogram samples" 2
    (Obs.Counters.hist_count
       (Obs.Counters.histogram ~registry "profile.engine.commit.ns"));
  check_bool "words/uop within the hot-path budget era" true
    (Obs.Ledger.minor_words_per_uop gc ~uops:committed >= 0.0)

let test_trace_seed_no_collisions () =
  (* The old affine formula (seed*31 + index + 101) collided across
     nearby benchmarks — e.g. (seed 1, phase 31) and (seed 2, phase 0)
     both mapped to 163. The splitmix-style mix must keep every
     realistic (seed, index) pair distinct. *)
  let base = Spec2000.find "gzip-1" in
  let seen = Hashtbl.create 8192 in
  let collisions = ref 0 in
  for seed = 0 to 499 do
    for index = 0 to 9 do
      let point =
        {
          Pinpoints.benchmark = "x";
          index;
          weight = 1.0;
          profile = { base with Profile.seed };
        }
      in
      let s = Harness.Runner.trace_seed point in
      check_bool "non-negative" true (s >= 0);
      if Hashtbl.mem seen s then incr collisions else Hashtbl.add seen s ()
    done
  done;
  check_int "all 5000 distinct" 0 !collisions

let test_trace_seed_deterministic () =
  let point = List.hd (Pinpoints.points tiny_profile) in
  check_int "stable across calls"
    (Harness.Runner.trace_seed point)
    (Harness.Runner.trace_seed point)

let test_runner_benchmark_covers_phases () =
  let results =
    Harness.Runner.run_suite ~machine:Config.default_2c
      ~configs:[ Clusteer.Configuration.Op ] ~uops:1000 [ tiny_profile ]
  in
  check_int "one result per phase" tiny_profile.Profile.phases
    (List.length results)

let test_runner_weighted_metric () =
  let results =
    Harness.Runner.run_suite ~machine:Config.default_2c
      ~configs:[ Clusteer.Configuration.Op ] ~uops:1000 [ tiny_profile ]
  in
  let v = Harness.Runner.weighted_metric results ~config:"op" ~f:(fun _ -> 7.0) in
  check_bool "weighted constant" true (abs_float (v -. 7.0) < 1e-9);
  Alcotest.check_raises "missing config"
    (Invalid_argument "Runner: configuration nope missing from results")
    (fun () ->
      ignore
        (Harness.Runner.weighted_metric results ~config:"nope" ~f:(fun _ -> 0.0)))

(* ---- Experiments ------------------------------------------------------------ *)

let mini_suite =
  [
    { (Spec2000.find "gzip-1") with Profile.phases = 1 };
    { (Spec2000.find "galgel") with Profile.phases = 1 };
  ]

let run2 =
  lazy
    (Harness.Experiments.run_2cluster ~uops:3000 ~profiles:mini_suite ())

let test_experiments_figure5_shape () =
  let fig = Harness.Experiments.figure5_of (Lazy.force run2) in
  check_int "two rows" 2 (List.length fig.Harness.Experiments.rows);
  let row = List.hd fig.Harness.Experiments.rows in
  check_int "four non-baseline configs" 4
    (List.length row.Harness.Experiments.slowdowns);
  check_bool "has one-cluster column" true
    (List.mem_assoc "one-cluster" row.Harness.Experiments.slowdowns);
  check_int "avgs arity" 4 (List.length fig.Harness.Experiments.cpu_avg)

let test_experiments_figure6_shape () =
  let fig = Harness.Experiments.figure6_of (Lazy.force run2) in
  check_int "one point per trace" 2
    (List.length fig.Harness.Experiments.vs_ob);
  check_int "three comparisons" 2 (List.length fig.Harness.Experiments.vs_op)

let test_experiments_figure7_runs () =
  let run =
    Harness.Experiments.run_4cluster ~uops:3000 ~profiles:mini_suite ()
  in
  let fig = Harness.Experiments.figure7_of run in
  let row = List.hd fig.Harness.Experiments.rows in
  check_bool "vc4 present" true
    (List.mem_assoc "vc4" row.Harness.Experiments.slowdowns);
  check_bool "vc2 present" true
    (List.mem_assoc "vc2" row.Harness.Experiments.slowdowns);
  (* §5.4 metric computes without error on the 4-cluster run. *)
  ignore (Harness.Experiments.copy_inflation run)

let test_experiments_section21 () =
  let r = Harness.Experiments.section21_example () in
  (* The sequential implementation places the dependent loads with
     their producer; the parallel one scatters them, costing exactly
     the paper's two extra copies. *)
  check_int "paper's delta" 2
    (r.Harness.Experiments.parallel_copies
   - r.Harness.Experiments.sequential_copies);
  Alcotest.(check (list int)) "sequential placement" [ 1; 1; 1 ]
    r.Harness.Experiments.sequential_placement

let test_experiments_csv_export () =
  let fig = Harness.Experiments.figure5_of (Lazy.force run2) in
  let path = Filename.temp_file "clusteer_fig5" ".csv" in
  Harness.Experiments.export_slowdowns ~path fig;
  check_bool "file exists" true (Sys.file_exists path);
  let ic = open_in path in
  let header = input_line ic in
  close_in ic;
  check_bool "header mentions benchmark" true
    (String.length header >= 9 && String.sub header 0 9 = "benchmark");
  Sys.remove path

let test_report_gnuplot_emission () =
  let fig = Harness.Experiments.figure5_of (Lazy.force run2) in
  let dir = Filename.temp_file "clusteer_report" "" in
  Sys.remove dir;
  let paths = Harness.Report.write_slowdown_figure ~dir ~name:"fig5" fig in
  check_int "two files" 2 (List.length paths);
  List.iter
    (fun p -> check_bool (p ^ " exists") true (Sys.file_exists p))
    paths;
  let gp = List.find (fun p -> Filename.check_suffix p ".gp") paths in
  let ic = open_in gp in
  let first = input_line ic in
  close_in ic;
  check_bool "gnuplot header" true
    (String.length first > 0 && first.[0] = '#');
  let scatter = Harness.Experiments.figure6_of (Lazy.force run2) in
  let spaths = Harness.Report.write_scatter_figure ~dir scatter in
  check_int "four files" 4 (List.length spaths);
  List.iter (fun p -> Sys.remove p) (paths @ spaths);
  Sys.rmdir dir

let () =
  Alcotest.run "clusteer_harness"
    [
      ( "metrics",
        [
          Alcotest.test_case "slowdown" `Quick test_metrics_slowdown;
          Alcotest.test_case "speedup" `Quick test_metrics_speedup;
          Alcotest.test_case "copy reduction" `Quick test_metrics_copy_reduction;
          Alcotest.test_case "balance improvement" `Quick test_metrics_balance_improvement;
        ] );
      ( "runner",
        [
          Alcotest.test_case "point shape" `Slow test_runner_point_shape;
          Alcotest.test_case "same trace everywhere" `Slow test_runner_same_trace_all_configs;
          Alcotest.test_case "covers phases" `Slow test_runner_benchmark_covers_phases;
          Alcotest.test_case "weighted metric" `Slow test_runner_weighted_metric;
          Alcotest.test_case "params reach the policy" `Quick
            test_runner_params_reach_policy;
          Alcotest.test_case "default warmup clamps" `Quick
            test_runner_default_warmup_clamps;
          Alcotest.test_case "tiny run completes" `Quick test_runner_tiny_run_completes;
          Alcotest.test_case "measured and profiled" `Quick
            test_runner_measured_and_profiled;
          Alcotest.test_case "trace seed collision-free" `Quick
            test_trace_seed_no_collisions;
          Alcotest.test_case "trace seed deterministic" `Quick
            test_trace_seed_deterministic;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "figure5 shape" `Slow test_experiments_figure5_shape;
          Alcotest.test_case "figure6 shape" `Slow test_experiments_figure6_shape;
          Alcotest.test_case "figure7 runs" `Slow test_experiments_figure7_runs;
          Alcotest.test_case "section 2.1" `Quick test_experiments_section21;
          Alcotest.test_case "csv export" `Slow test_experiments_csv_export;
          Alcotest.test_case "gnuplot emission" `Slow test_report_gnuplot_emission;
        ] );
    ]
