(* Defining a custom workload profile: a synthetic "sparse solver" that
   is not part of SPEC CPU2000, synthesized with the same generator the
   suite uses, then evaluated under all five steering configurations.

     dune exec examples/custom_workload.exe *)

module Profile = Clusteer_workloads.Profile
module Pinpoints = Clusteer_workloads.Pinpoints
module Config = Clusteer_uarch.Config
module Stats = Clusteer_uarch.Stats
module Runner = Clusteer_harness.Runner
module Metrics = Clusteer_harness.Metrics
module Table = Clusteer_util.Table

(* A sparse iterative solver: FP-heavy, mixed strided/irregular memory
   with a large footprint, long dependence chains, predictable inner
   loops with occasional data-dependent branches. *)
let sparse_solver =
  {
    Profile.name = "custom.sparse-solver";
    suite = Profile.Spec_fp;
    seed = 20_260_706;
    fp_ratio = 0.55;
    mem_ratio = 0.38;
    ilp = 4;
    chain_len = 9;
    footprint_kb = 1536;
    stride_frac = 0.5;
    chase_frac = 0.2;
    loops = 3;
    block_size = 11;
    loop_trip = 24;
    hard_branch_frac = 0.08;
    phases = 3;
  }

let uops = 15_000

let () =
  Profile.validate sparse_solver;
  Fmt.pr "Custom workload %s: %d phases, %d micro-ops per phase@.@."
    sparse_solver.Profile.name sparse_solver.Profile.phases uops;
  let results =
    Runner.run_suite ~machine:Config.default_2c
      ~configs:(Clusteer.Configuration.table3 ~clusters:2)
      ~uops [ sparse_solver ]
  in
  (* Phase-weighted slowdown vs OP, as the paper reports. *)
  let configs =
    List.filter
      (fun n -> n <> "op")
      (List.map fst (List.hd results).Runner.runs)
  in
  let rows =
    List.map
      (fun config ->
        let slowdown =
          Runner.weighted_pair_metric results ~config_a:config ~config_b:"op"
            ~f:(fun a b -> Metrics.slowdown_pct ~baseline:b a)
        in
        let copies =
          Runner.weighted_metric results ~config ~f:(fun s ->
              float_of_int s.Stats.copies_generated)
        in
        [|
          config;
          Printf.sprintf "%+.2f%%" slowdown;
          Printf.sprintf "%.0f" copies;
        |])
      configs
  in
  print_string
    (Table.render
       ~header:[| "config"; "slowdown vs op"; "copies (weighted)" |]
       rows);
  Fmt.pr
    "@.Per-phase detail (phase : weight : op IPC : vc2 IPC):@.";
  List.iter
    (fun (r : Runner.point_result) ->
      let ipc name = Stats.ipc (List.assoc name r.Runner.runs) in
      Fmt.pr "  phase %d : %.2f : %.2f : %.2f@." r.Runner.point.Pinpoints.index
        r.Runner.point.Pinpoints.weight (ipc "op") (ipc "vc2"))
    results
