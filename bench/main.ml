(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs the design-choice ablations from DESIGN.md, then
   times the core algorithms with Bechamel (one Test.make per table /
   figure driver).

   Environment knobs:
     CLUSTEER_BENCH_UOPS   micro-ops per simulation point (default 20000)
     CLUSTEER_BENCH_FAST   set to 1 to sweep a 10-benchmark subset
     CLUSTEER_BENCH_STUDY  "throughput" runs just the throughput study;
                           "tune" runs one tiny auto-tuner cycle;
                           "topo" runs the interconnect-topology study
                           "predict" runs the cost-model accuracy study
     CLUSTEER_BENCH_REQUIRE_SPEEDUP
                           set to 1 to enforce the suite-speedup floor
                           (>=1.5x at 2 domains, >=3x at 4); checks the
                           host cannot run in parallel are SKIPped,
                           bit-identity mismatches always fail
     CLUSTEER_BENCH_LEDGER record the throughput study in the run
                           ledger at this directory
     CLUSTEER_BENCH_JSON   where to write the BENCH JSON (bench.json) *)

open Bechamel
module Config = Clusteer_uarch.Config
module Topology = Clusteer_topo.Topology
module Stats = Clusteer_uarch.Stats
module Experiments = Clusteer_harness.Experiments
module Runner = Clusteer_harness.Runner
module Metrics = Clusteer_harness.Metrics
module Spec2000 = Clusteer_workloads.Spec2000
module Profile = Clusteer_workloads.Profile
module Pinpoints = Clusteer_workloads.Pinpoints
module Synth = Clusteer_workloads.Synth
module Obs = Clusteer_obs

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

let uops = env_int "CLUSTEER_BENCH_UOPS" 20_000

let profiles =
  if Sys.getenv_opt "CLUSTEER_BENCH_FAST" = Some "1" then
    List.map Spec2000.find
      [
        "gzip-1"; "gcc-1"; "crafty"; "mcf"; "twolf"; "galgel"; "swim";
        "equake"; "art-1"; "sixtrack";
      ]
  else Spec2000.all

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let progress name = Printf.eprintf "  running %s...\r%!" name

(* ---- paper tables ---------------------------------------------------- *)

let run_tables () =
  heading "Table 1: steering-logic complexity";
  Experiments.print_table1 ();
  heading "Table 2: architectural parameters";
  Experiments.print_table2 ~clusters:2;
  heading "Table 3: evaluated configurations";
  Experiments.print_table3 ();
  heading "Section 2.1 worked example";
  Experiments.print_section21 (Experiments.section21_example ())

(* ---- figures ---------------------------------------------------------- *)

let run_figures () =
  heading
    (Printf.sprintf
       "Figure 5: 2-cluster slowdown vs OP (%d points x %d uops)"
       (List.length profiles) uops);
  let run2 = Experiments.run_2cluster ~uops ~profiles ~progress () in
  Printf.eprintf "%40s\r%!" "";
  let fig5 = Experiments.figure5_of run2 in
  Experiments.print_slowdown_figure
    ~title:"(paper averages: one-cluster 12.19, OB 6.50, RHOP 5.40, VC 2.62)"
    fig5;
  heading "Figure 6: copy / balance trade-off (VC vs OB, RHOP, OP)";
  print_endline
    "(paper: a.1/b.1 VC reduces copies and stalls vs OB; a.2/b.2 VC vs RHOP\n\
    \ wins overall; a.3/b.3 OP generates fewer copies than VC)";
  let fig6 = Experiments.figure6_of run2 in
  Experiments.print_scatter_summary fig6;
  Experiments.print_scatter_plots fig6;
  heading
    (Printf.sprintf "Figure 7: 4-cluster slowdown vs OP (%d points)"
       (List.length profiles));
  let run4 = Experiments.run_4cluster ~uops ~profiles ~progress () in
  Printf.eprintf "%40s\r%!" "";
  let fig7 = Experiments.figure7_of run4 in
  Experiments.print_slowdown_figure
    ~title:
      "(paper averages: OB 12.45, RHOP 12.69, VC(4->4) 12.96, VC(2->4) 3.64)"
    fig7;
  Printf.printf "VC(4->4) copies over VC(2->4): %+.1f%% (paper: +28%%)\n"
    (Experiments.copy_inflation run4)

(* ---- ablations --------------------------------------------------------- *)

(* Design-choice ablation 1: the remap hysteresis threshold of the
   hardware mapping table (0 = the paper's always-remap semantics). *)
let ablation_profiles () =
  List.map Spec2000.find [ "gzip-1"; "galgel"; "swim"; "gcc-1" ]

let run_vc_threshold_ablation () =
  heading "Ablation: VC remap hysteresis threshold (extension; 0 = paper)";
  let bench_uops = min uops 10_000 in
  Printf.printf "%-10s %12s %14s %16s\n" "threshold" "avg cycles" "avg copies"
    "avg alloc stalls";
  List.iter
    (fun threshold ->
      let totals = ref (0, 0, 0) in
      List.iter
        (fun profile ->
          let point = List.hd (Pinpoints.points profile) in
          let workload = Synth.build point.Pinpoints.profile in
          let annot =
            Clusteer.Hybrid.compile ~program:workload.Synth.program
              ~likely:workload.Synth.likely ~virtual_clusters:2 ()
          in
          let policy =
            Clusteer_steer.Vc_map.make ~remap_threshold:threshold ~annot
              ~clusters:2 ()
          in
          let prewarm =
            Array.to_list
              (Array.map Clusteer_trace.Mem_model.extent workload.Synth.streams)
          in
          let engine =
            Clusteer_uarch.Engine.create ~config:Config.default_2c ~annot
              ~policy ~prewarm ()
          in
          let gen = Synth.trace workload ~seed:1 in
          let stats =
            Clusteer_uarch.Engine.run ~warmup:5000 engine
              ~source:(fun () -> Clusteer_trace.Tracegen.next gen)
              ~uops:bench_uops
          in
          let c, k, s = !totals in
          totals :=
            ( c + stats.Stats.cycles,
              k + stats.Stats.copies_generated,
              s + Stats.allocation_stalls stats ))
        (ablation_profiles ());
      let n = List.length (ablation_profiles ()) in
      let c, k, s = !totals in
      Printf.printf "%-10d %12d %14d %16d\n" threshold (c / n) (k / n) (s / n))
    [ 0; 4; 8; 16; 32 ]

(* Design-choice ablation 2: sequential vs parallel (rename-style)
   steering at full-trace scale (§2.1 beyond the worked example). *)
let run_seq_par_ablation () =
  heading "Ablation: sequential vs parallel OP steering (2.1 at trace scale)";
  let bench_uops = min uops 10_000 in
  Printf.printf "%-12s %14s %14s %12s\n" "benchmark" "seq copies" "par copies"
    "par slowdown";
  List.iter
    (fun profile ->
      let point = List.hd (Pinpoints.points profile) in
      let runs =
        (Runner.run_point ~machine:Config.default_2c
           ~configs:
             [ Clusteer.Configuration.Op; Clusteer.Configuration.Op_parallel ]
           ~uops:bench_uops point)
          .Runner.runs
      in
      let op = List.assoc "op" runs and par = List.assoc "op-parallel" runs in
      Printf.printf "%-12s %14d %14d %11.2f%%\n" profile.Profile.name
        op.Stats.copies_generated par.Stats.copies_generated
        (Metrics.slowdown_pct ~baseline:op par))
    (ablation_profiles ())

(* Design-choice ablation 3: number of virtual clusters on the
   2-cluster machine (the paper fixes 2 "because more does not help"). *)
let run_vc_count_ablation () =
  heading "Ablation: virtual-cluster count on the 2-cluster machine";
  let bench_uops = min uops 10_000 in
  Printf.printf "%-6s %12s %14s\n" "VCs" "avg cycles" "avg copies";
  List.iter
    (fun nvc ->
      let totals = ref (0, 0) in
      List.iter
        (fun profile ->
          let point = List.hd (Pinpoints.points profile) in
          let runs =
            (Runner.run_point ~machine:Config.default_2c
               ~configs:[ Clusteer.Configuration.Vc { virtual_clusters = nvc } ]
               ~uops:bench_uops point)
              .Runner.runs
          in
          let _, stats = List.hd runs in
          let c, k = !totals in
          totals := (c + stats.Stats.cycles, k + stats.Stats.copies_generated))
        (ablation_profiles ());
      let n = List.length (ablation_profiles ()) in
      let c, k = !totals in
      Printf.printf "%-6d %12d %14d\n" nvc (c / n) (k / n))
    [ 1; 2; 3; 4 ]

(* Design-choice ablation 4: the compiler's region scope — §3.2 claims
   software steering wins by inspecting "a bigger window of
   instructions" than the hardware can; shrinking the superblock
   budget should cost the software schemes performance. *)
let run_region_scope_ablation () =
  heading "Ablation: compiler region scope (micro-ops per superblock)";
  let bench_uops = min uops 10_000 in
  Printf.printf "%-12s %14s %14s %14s
" "scheme" "32-uop regions"
    "128-uop regions" "512-uop regions";
  let avg_cycles config region_uops =
    let total = ref 0 in
    List.iter
      (fun profile ->
        let point = List.hd (Pinpoints.points profile) in
        let workload = Synth.build point.Pinpoints.profile in
        let annot, policy =
          Clusteer.Configuration.prepare config ~program:workload.Synth.program
            ~likely:workload.Synth.likely ~clusters:2 ~region_uops ()
        in
        let prewarm =
          Array.to_list
            (Array.map Clusteer_trace.Mem_model.extent workload.Synth.streams)
        in
        let engine =
          Clusteer_uarch.Engine.create ~config:Config.default_2c ~annot
            ~policy ~prewarm ()
        in
        let gen = Synth.trace workload ~seed:1 in
        let stats =
          Clusteer_uarch.Engine.run ~warmup:5000 engine
            ~source:(fun () -> Clusteer_trace.Tracegen.next gen)
            ~uops:bench_uops
        in
        total := !total + stats.Stats.cycles)
      (ablation_profiles ());
    !total / List.length (ablation_profiles ())
  in
  List.iter
    (fun config ->
      Printf.printf "%-12s %14d %14d %14d
"
        (Clusteer.Configuration.name config)
        (avg_cycles config 32) (avg_cycles config 128)
        (avg_cycles config 512))
    [
      Clusteer.Configuration.Ob;
      Clusteer.Configuration.Rhop;
      Clusteer.Configuration.Vc { virtual_clusters = 2 };
    ]

(* Extension study 0: quantify §2.1 — charge the hardware-only schemes
   the extra decode stages their serialized dependence-check + vote
   logic would cost, and watch the hybrid overtake OP. *)
let run_steer_depth_study () =
  heading "Extension: cost of serialized steering logic (2.1)";
  print_endline
    "(VC slowdown vs OP when OP pays extra pipe stages for its serialized\n\
     dependence-check + vote logic; negative = the hybrid is faster)";
  let bench_uops = min uops 10_000 in
  Printf.printf "%-14s %14s %14s %14s\n" "benchmark" "+0 stages" "+1 stage"
    "+2 stages";
  List.iter
    (fun profile ->
      let point = List.hd (Pinpoints.points profile) in
      let gap stages =
        let machine =
          { Config.default_2c with Config.steer_serial_stages = stages }
        in
        let runs =
          (Runner.run_point ~machine
             ~configs:
               [
                 Clusteer.Configuration.Op;
                 Clusteer.Configuration.Vc { virtual_clusters = 2 };
               ]
             ~uops:bench_uops point)
            .Runner.runs
        in
        Metrics.slowdown_pct
          ~baseline:(List.assoc "op" runs)
          (List.assoc "vc2" runs)
      in
      Printf.printf "%-14s %13.2f%% %13.2f%% %13.2f%%\n" profile.Profile.name
        (gap 0) (gap 1) (gap 2))
    (ablation_profiles ())

(* Extension study 1: baselines beyond Table 3 — MOD_3 (Baniasadi &
   Moshovos) and plain dependence-based steering (Canal et al.), the
   ancestors the paper's §3.1 positions OP against. *)
let run_extended_baselines () =
  heading "Extension: hardware baselines beyond Table 3 (slowdown vs OP)";
  let bench_uops = min uops 10_000 in
  Printf.printf "%-12s %8s %8s %8s %8s %8s\n" "benchmark" "mod3" "dep"
    "crit" "one-cl" "vc2";
  List.iter
    (fun profile ->
      let point = List.hd (Pinpoints.points profile) in
      let runs =
        (Runner.run_point ~machine:Config.default_2c
           ~configs:
             [
               Clusteer.Configuration.Op;
               Clusteer.Configuration.Mod_n { n = 3 };
               Clusteer.Configuration.Dep;
               Clusteer.Configuration.Crit;
               Clusteer.Configuration.One_cluster;
               Clusteer.Configuration.Vc { virtual_clusters = 2 };
             ]
           ~uops:bench_uops point)
          .Runner.runs
      in
      let op = List.assoc "op" runs in
      let slow name =
        Metrics.slowdown_pct ~baseline:op (List.assoc name runs)
      in
      Printf.printf "%-12s %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%%\n"
        profile.Profile.name (slow "mod3") (slow "dep") (slow "crit")
        (slow "one-cluster") (slow "vc2"))
    (ablation_profiles ())

(* Extension study 2: interconnect topology at 4 clusters — the paper
   assumes dedicated point-to-point links; this quantifies that choice
   against a shared bus and a ring. *)
let run_topology_study () =
  heading "Extension: interconnect topology, 4-cluster machine (cycles)";
  let bench_uops = min uops 10_000 in
  Printf.printf "%-12s %16s %12s %12s\n" "benchmark" "point-to-point" "bus"
    "ring";
  List.iter
    (fun profile ->
      let point = List.hd (Pinpoints.points profile) in
      let cycles topology =
        let machine = { Config.default_4c with Config.topology } in
        let runs =
          (Runner.run_point ~machine
             ~configs:[ Clusteer.Configuration.Vc { virtual_clusters = 2 } ]
             ~uops:bench_uops point)
            .Runner.runs
        in
        (snd (List.hd runs)).Stats.cycles
      in
      Printf.printf "%-12s %16d %12d %12d\n" profile.Profile.name
        (cycles (Topology.p2p ~clusters:4 ()))
        (cycles (Topology.bus ~clusters:4 ()))
        (cycles (Topology.ring ~clusters:4 ())))
    (ablation_profiles ())

(* Extension study 3: the VLIW substrate (§3.3) — software-only
   steering on its home ground. On the statically-scheduled machine,
   RHOP and the VC partition are competitive with unified
   assign-and-schedule; the big gaps of Figure 5 only exist on the
   out-of-order machine, which is the paper's §3.3 argument. *)
let run_vliw_study () =
  heading "Extension: VLIW substrate (3.3) — static-schedule gap vs UAS";
  let machine = Clusteer_vliw.Machine.default ~clusters:2 in
  Printf.printf "%-12s %10s %18s %18s\n" "benchmark" "UAS IPC" "RHOP gap"
    "VC-partition gap";
  List.iter
    (fun profile ->
      let w = Synth.build profile in
      let program = w.Synth.program and likely = w.Synth.likely in
      let run mode = Clusteer_vliw.Eval.run machine ~program ~likely mode in
      let uas = run Clusteer_vliw.Eval.Unified in
      let rhop =
        run
          (Clusteer_vliw.Eval.Fixed
             (fun g -> Clusteer_compiler.Rhop.assign_region g ~clusters:2))
      in
      let vc =
        run
          (Clusteer_vliw.Eval.Fixed
             (fun g ->
               Clusteer_compiler.Vc_partition.assign_region g
                 ~virtual_clusters:2 ()))
      in
      let gap (s : Clusteer_vliw.Eval.summary) =
        (float_of_int s.Clusteer_vliw.Eval.cycles
         /. float_of_int uas.Clusteer_vliw.Eval.cycles
        -. 1.0)
        *. 100.0
      in
      Printf.printf "%-12s %10.2f %17.2f%% %17.2f%%\n" profile.Profile.name
        uas.Clusteer_vliw.Eval.static_ipc (gap rhop) (gap vc))
    (ablation_profiles ())

(* Extension study 4: the energy argument of §1 — a clustered backend
   with the hybrid steering vs an equally wide monolithic backend.
   Smaller per-cluster structures cost less per access; copies add
   events. *)
let run_energy_study () =
  heading "Extension: energy per committed micro-op (arbitrary units)";
  let bench_uops = min uops 10_000 in
  let monolithic =
    {
      Config.default_2c with
      Config.clusters = 1;
      topology = Topology.p2p ~clusters:1 ();
      int_issue_width = 4;
      fp_issue_width = 4;
      int_iq_size = 96;
      fp_iq_size = 96;
    }
  in
  Printf.printf "%-12s %12s %12s %14s %16s %12s\n" "benchmark" "mono e/uop"
    "vc2 e/uop" "vc2 copy e%" "vc2 cycle delta" "vc2 dT";
  List.iter
    (fun profile ->
      let point = List.hd (Pinpoints.points profile) in
      let run machine config =
        let runs =
          (Runner.run_point ~machine ~configs:[ config ] ~uops:bench_uops
             point)
            .Runner.runs
        in
        snd (List.hd runs)
      in
      let mono = run monolithic Clusteer.Configuration.One_cluster in
      let vc =
        run Config.default_2c
          (Clusteer.Configuration.Vc { virtual_clusters = 2 })
      in
      let e_mono = Clusteer_uarch.Energy.estimate ~clusters:1 mono in
      let e_vc = Clusteer_uarch.Energy.estimate ~clusters:2 vc in
      let t_vc = Clusteer_uarch.Thermal.estimate ~clusters:2 vc in
      Printf.printf "%-12s %12.2f %12.2f %13.1f%% %15.1f%% %11.2f\n"
        profile.Profile.name e_mono.Clusteer_uarch.Energy.per_uop
        e_vc.Clusteer_uarch.Energy.per_uop
        (100.
        *. e_vc.Clusteer_uarch.Energy.copies
        /. Float.max 1e-9 e_vc.Clusteer_uarch.Energy.dynamic)
        ((float_of_int vc.Stats.cycles /. float_of_int mono.Stats.cycles -. 1.0)
        *. 100.)
        t_vc.Clusteer_uarch.Thermal.spread)
    (ablation_profiles ())

(* Extension study 5: link latency sensitivity — Table 2's 1-cycle
   point-to-point links are optimistic for deeper technologies; the
   hybrid's advantage should be robust as copies get slower. *)
let run_link_latency_study () =
  heading "Extension: inter-cluster link latency sensitivity (VC vs OP)";
  let bench_uops = min uops 10_000 in
  Printf.printf "%-12s %12s %12s %12s
" "benchmark" "1 cycle" "2 cycles"
    "4 cycles";
  List.iter
    (fun profile ->
      let point = List.hd (Pinpoints.points profile) in
      let gap latency =
        let machine =
          {
            Config.default_2c with
            Config.topology = Topology.p2p ~link_latency:latency ~clusters:2 ();
          }
        in
        let runs =
          (Runner.run_point ~machine
             ~configs:
               [
                 Clusteer.Configuration.Op;
                 Clusteer.Configuration.Vc { virtual_clusters = 2 };
               ]
             ~uops:bench_uops point)
            .Runner.runs
        in
        Metrics.slowdown_pct
          ~baseline:(List.assoc "op" runs)
          (List.assoc "vc2" runs)
      in
      Printf.printf "%-12s %11.2f%% %11.2f%% %11.2f%%
" profile.Profile.name
        (gap 1) (gap 2) (gap 4))
    (ablation_profiles ())

(* Extension study 6: cluster-count scaling beyond the paper (2 and 4
   evaluated there; 8 extrapolated) — does VC(2->N) keep tracking OP? *)
let run_scaling_study () =
  heading "Extension: cluster-count scaling, VC(2->N) slowdown vs OP";
  let bench_uops = min uops 10_000 in
  Printf.printf "%-12s %12s %12s %12s
" "benchmark" "2 clusters"
    "4 clusters" "8 clusters";
  List.iter
    (fun profile ->
      let point = List.hd (Pinpoints.points profile) in
      let gap clusters =
        let machine = Config.default ~clusters in
        let runs =
          (Runner.run_point ~machine
             ~configs:
               [
                 Clusteer.Configuration.Op;
                 Clusteer.Configuration.Vc { virtual_clusters = 2 };
               ]
             ~uops:bench_uops point)
            .Runner.runs
        in
        Metrics.slowdown_pct
          ~baseline:(List.assoc "op" runs)
          (List.assoc "vc2" runs)
      in
      Printf.printf "%-12s %11.2f%% %11.2f%% %11.2f%%
" profile.Profile.name
        (gap 2) (gap 4) (gap 8))
    (ablation_profiles ())

(* Extension study 7: an idealised next-line prefetcher — how much of
   the memory-bound benchmarks' stall time is prefetchable, and does
   the steering ranking survive a better memory system? *)
let run_prefetch_study () =
  heading "Extension: idealised next-line prefetch (cycles, VC on 2 clusters)";
  let bench_uops = min uops 10_000 in
  Printf.printf "%-12s %14s %14s %10s
" "benchmark" "no prefetch"
    "prefetch" "saved";
  List.iter
    (fun name ->
      let profile = Spec2000.find name in
      let point = List.hd (Pinpoints.points profile) in
      let cycles prefetch_next_line =
        let machine = { Config.default_2c with Config.prefetch_next_line } in
        let runs =
          (Runner.run_point ~machine
             ~configs:[ Clusteer.Configuration.Vc { virtual_clusters = 2 } ]
             ~uops:bench_uops point)
            .Runner.runs
        in
        (snd (List.hd runs)).Stats.cycles
      in
      let off = cycles false and on = cycles true in
      Printf.printf "%-12s %14d %14d %9.1f%%
" profile.Profile.name off on
        (100. *. float_of_int (off - on) /. float_of_int off))
    [ "mcf"; "swim"; "equake"; "art-1" ]

(* Ground truth: the hand-written kernels under the main schemes. *)
let run_kernel_table () =
  heading "Micro-kernels: analytically understood steering ground truth";
  let bench_uops = min uops 8_000 in
  Printf.printf "%-12s %9s %10s %10s %12s
" "kernel" "op IPC" "one-cl"
    "vc2" "vc2 copies";
  List.iter
    (fun (name, kernel) ->
      let runs =
        Runner.run_workload ~machine:Config.default_2c
          ~configs:
            [
              Clusteer.Configuration.Op;
              Clusteer.Configuration.One_cluster;
              Clusteer.Configuration.Vc { virtual_clusters = 2 };
            ]
          ~uops:bench_uops kernel
      in
      let stats n = List.assoc n runs in
      let op = stats "op" in
      let slow n =
        (float_of_int (stats n).Stats.cycles /. float_of_int op.Stats.cycles
        -. 1.0)
        *. 100.0
      in
      Printf.printf "%-12s %9.2f %9.1f%% %9.1f%% %12d
" name (Stats.ipc op)
        (slow "one-cluster") (slow "vc2")
        (stats "vc2").Stats.copies_generated)
    Clusteer_workloads.Kernels.all

(* ---- suite throughput + steering allocation study ----------------------- *)

(* Machine-readable results for the throughput study: one BENCH JSON
   object, printed to stdout (greppable by `make bench-smoke`) and
   written to CLUSTEER_BENCH_JSON (default "bench.json"). *)
let write_bench_json fields =
  let json = Obs.Json.Obj fields in
  let path =
    Option.value ~default:"bench.json" (Sys.getenv_opt "CLUSTEER_BENCH_JSON")
  in
  (try
     let oc = open_out path in
     Obs.Json.output oc json;
     output_char oc '\n';
     close_out oc;
     Printf.printf "bench json written to %s\n" path
   with Sys_error msg -> Printf.eprintf "bench json not written: %s\n" msg);
  Printf.printf "BENCH %s\n" (Obs.Json.to_string json)

(* An allocation-free machine view (constant locations, no hashtable,
   no per-call closures) so [Gc.minor_words] deltas measure the policy
   itself, not the probe. *)
let alloc_probe_view ~clusters ~annot =
  let inflight = Array.make clusters 0 in
  let free = Array.make clusters 48 in
  let loc = Clusteer_util.Bitset.singleton 0 in
  {
    Clusteer_uarch.Policy.clusters;
    cycle = (fun () -> 0);
    inflight = (fun c -> inflight.(c));
    queue_free = (fun c _ -> free.(c));
    src_locations =
      (fun d ->
        Array.map
          (fun _ -> loc)
          d.Clusteer_trace.Dynuop.suop.Clusteer_isa.Uop.srcs);
    src_locations_into =
      (fun d buf ->
        let n =
          Array.length d.Clusteer_trace.Dynuop.suop.Clusteer_isa.Uop.srcs
        in
        for i = 0 to n - 1 do
          buf.(i) <- loc
        done;
        n);
    reg_location = (fun _ -> loc);
    annot;
  }

let minor_words_per_decide policy view duop =
  let rounds = 20_000 in
  (* Warm any lazily sized scratch out of the measurement. *)
  for _ = 1 to 256 do
    ignore (policy.Clusteer_uarch.Policy.decide view duop)
  done;
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (policy.Clusteer_uarch.Policy.decide view duop)
  done;
  (Gc.minor_words () -. before) /. float_of_int rounds

(* Enforced scaling floor for `make bench-smoke`
   (CLUSTEER_BENCH_REQUIRE_SPEEDUP=1): the shared-nothing harness must
   reach these suite speedups or the study exits 1 with a one-line
   diagnostic. The escape hatch for small CI machines is automatic: a
   domain count the host cannot actually run in parallel
   ([Domain.recommended_domain_count () < domains]) downgrades that
   check to an explicit SKIP line. Bit-identity across domain counts
   has no hatch — a mismatch always fails. *)
let required_speedup domains =
  if domains >= 4 then 3.0 else if domains >= 2 then 1.5 else 0.0

(* Minor-heap words per committed micro-op the whole simulation path
   (engine + trace generator, op on gzip-1) may allocate. *)
let max_engine_words_per_uop = 16.0

let run_throughput_study () =
  heading "Throughput study: parallel harness + zero-allocation steering";
  let started = Unix.gettimeofday () in
  let gc_start = Obs.Ledger.gc_now () in
  (* 1. Suite throughput vs domain count. Each measurement replays the
     identical work (the harness is deterministic), so uops/sec is
     directly comparable across domain counts. On a single-core host
     the speedup column honestly reports ~1.0. *)
  let suite =
    List.map
      (fun n -> { (Spec2000.find n) with Profile.phases = 2 })
      [ "gzip-1"; "galgel"; "swim"; "gcc-1" ]
  in
  let configs =
    [
      Clusteer.Configuration.Op;
      Clusteer.Configuration.Vc { virtual_clusters = 2 };
    ]
  in
  let per_point_uops = min uops 2_000 in
  let npoints =
    List.fold_left
      (fun acc p -> acc + List.length (Pinpoints.points p))
      0 suite
  in
  let total_uops = npoints * List.length configs * per_point_uops in
  let measure domains =
    let gc0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let results =
      Runner.run_suite ~domains ~machine:Config.default_2c ~configs
        ~uops:per_point_uops suite
    in
    let dt = Unix.gettimeofday () -. t0 in
    let gc1 = Gc.quick_stat () in
    ( results,
      dt,
      gc1.Gc.minor_words -. gc0.Gc.minor_words,
      gc1.Gc.minor_collections - gc0.Gc.minor_collections )
  in
  let baseline, t1, mw1, mc1 = measure 1 in
  Printf.printf "%d points x %d configs x %d uops (%d uops per sweep)\n"
    npoints (List.length configs) per_point_uops total_uops;
  Printf.printf "%-14s %10s %14s %9s %10s %13s %9s\n" "domains" "wall s"
    "uops/sec" "speedup" "identical" "minor words" "minor gcs";
  let row ~domains (results, dt, mw, mc) =
    let identical =
      List.for_all2
        (fun (a : Runner.point_result) (b : Runner.point_result) ->
          List.for_all2
            (fun (_, x) (_, y) -> Stats.equal x y)
            a.Runner.runs b.Runner.runs)
        baseline results
    in
    let ups = float_of_int total_uops /. dt in
    Printf.printf "%-14d %10.3f %14.0f %8.2fx %10b %13.2e %9d\n" domains dt ups
      (t1 /. dt) identical mw mc;
    ( Obs.Json.Obj
        [
          ("domains", Obs.Json.Int domains);
          ("seconds", Obs.Json.Float dt);
          ("uops_per_sec", Obs.Json.Float ups);
          ("speedup", Obs.Json.Float (t1 /. dt));
          ("identical", Obs.Json.Bool identical);
          ("minor_words", Obs.Json.Float mw);
          ("minor_collections", Obs.Json.Int mc);
        ],
      (domains, t1 /. dt, identical) )
  in
  let r1 = row ~domains:1 (baseline, t1, mw1, mc1) in
  let r2 = row ~domains:2 (measure 2) in
  let r4 = row ~domains:4 (measure 4) in
  let measured_rows = [ r1; r2; r4 ] in
  let rows = List.map fst measured_rows in
  let host_domains = Domain.recommended_domain_count () in
  let require = Sys.getenv_opt "CLUSTEER_BENCH_REQUIRE_SPEEDUP" = Some "1" in
  let failures = ref [] in
  List.iter
    (fun (domains, speedup, identical) ->
      if not identical then
        failures :=
          Printf.sprintf
            "bench-smoke: FAIL results at %d domains not bit-identical to \
             the sequential run"
            domains
          :: !failures;
      if require && domains > 1 then
        let required = required_speedup domains in
        if host_domains < domains then
          Printf.printf
            "bench-smoke: SKIP speedup check at %d domains (host recommends \
             %d domain%s, cannot run %d in parallel)\n"
            domains host_domains
            (if host_domains = 1 then "" else "s")
            domains
        else if speedup < required then
          failures :=
            Printf.sprintf
              "bench-smoke: FAIL suite speedup at %d domains %.2fx < \
               required %.2fx"
              domains speedup required
            :: !failures
        else
          Printf.printf
            "bench-smoke: OK suite speedup at %d domains %.2fx >= %.2fx\n"
            domains speedup required)
    (List.map snd measured_rows);
  (* 2. Minor-heap words allocated per steering decision, against a
     constant-location probe view: the fast-path contract is 0.0 for
     every policy. *)
  let workload = Synth.build (Spec2000.find "gzip-1") in
  let annot =
    Clusteer.Hybrid.compile ~program:workload.Synth.program
      ~likely:workload.Synth.likely ~virtual_clusters:2 ()
  in
  let view = alloc_probe_view ~clusters:2 ~annot in
  let duop = Clusteer_trace.Tracegen.next (Synth.trace workload ~seed:1) in
  (* The static schemes read their own compiler placement, so they are
     built the way a simulation builds them. *)
  let prepared config =
    snd
      (Clusteer.Configuration.prepare config ~program:workload.Synth.program
         ~likely:workload.Synth.likely ~clusters:2 ())
  in
  let policies =
    [
      ("op", Clusteer_steer.Op.make ());
      ("op-parallel", Clusteer_steer.Op_parallel.make ());
      ("dep", Clusteer_steer.Dep.make ());
      ("vc2", Clusteer_steer.Vc_map.make ~annot ~clusters:2 ());
      ("one-cluster", prepared Clusteer.Configuration.One_cluster);
      ("ob", prepared Clusteer.Configuration.Ob);
      ("rhop", prepared Clusteer.Configuration.Rhop);
    ]
  in
  Printf.printf "\n%-12s %22s\n" "policy" "minor words/decision";
  let alloc_fields =
    List.map
      (fun (name, policy) ->
        let words = minor_words_per_decide policy view duop in
        Printf.printf "%-12s %22.4f\n" name words;
        (name, Obs.Json.Float words))
      policies
  in
  (* 3. Engine-level allocation per committed micro-op (includes the
     trace generator — the whole per-uop simulation path). *)
  let engine_words =
    let annot, policy =
      Clusteer.Configuration.prepare Clusteer.Configuration.Op
        ~program:workload.Synth.program ~likely:workload.Synth.likely
        ~clusters:2 ()
    in
    let prewarm =
      Array.to_list
        (Array.map Clusteer_trace.Mem_model.extent workload.Synth.streams)
    in
    let engine =
      Clusteer_uarch.Engine.create ~config:Config.default_2c ~annot ~policy
        ~prewarm ()
    in
    let gen = Synth.trace workload ~seed:1 in
    let n = min uops 20_000 in
    let before = Gc.minor_words () in
    let stats =
      Clusteer_uarch.Engine.run ~warmup:0 engine
        ~source:(fun () -> Clusteer_trace.Tracegen.next gen)
        ~uops:n
    in
    (Gc.minor_words () -. before) /. float_of_int stats.Stats.committed
  in
  Printf.printf "%-12s %22.1f  (engine + tracegen, op policy)\n" "full-path"
    engine_words;
  (* Allocation budget for the whole per-uop simulation path. Minor
     words on a fixed workload and seed do not depend on the host, so
     the budget is always enforced. *)
  if engine_words > max_engine_words_per_uop then
    failures :=
      Printf.sprintf
        "bench-smoke: FAIL full-path allocation %.1f minor words/uop > \
         budget %.1f"
        engine_words max_engine_words_per_uop
      :: !failures
  else
    Printf.printf
      "bench-smoke: OK full-path allocation %.1f minor words/uop <= %.1f\n"
      engine_words max_engine_words_per_uop;
  write_bench_json
    [
      ("suite_throughput", Obs.Json.List rows);
      ("host_recommended_domains", Obs.Json.Int host_domains);
      ("speedup_enforced", Obs.Json.Bool require);
      ( "speedup_required",
        Obs.Json.Obj
          [
            ("2", Obs.Json.Float (required_speedup 2));
            ("4", Obs.Json.Float (required_speedup 4));
          ] );
      ("steering_alloc_words_per_decide", Obs.Json.Obj alloc_fields);
      ("engine_minor_words_per_uop", Obs.Json.Float engine_words);
    ];
  (* Run-ledger record of the speedup table (CLUSTEER_BENCH_LEDGER=DIR,
     set by `make bench-smoke`): the same durable trail `csteer
     experiment --ledger` leaves, so scaling regressions show up in
     `csteer runs list` next to everything else. *)
  let outcome = if !failures = [] then "ok" else "fail" in
  (match Sys.getenv_opt "CLUSTEER_BENCH_LEDGER" with
  | Some dir -> (
      try
        let ledger = Obs.Ledger.create ~dir in
        let committed =
          Obs.Counters.value (Obs.Counters.counter "harness.uops_committed")
        in
        let gc = Obs.Ledger.gc_sub (Obs.Ledger.gc_now ()) gc_start in
        let s =
          Obs.Ledger.append ledger ~kind:"bench" ~label:"suite_throughput"
            ~config:
              (Obs.Json.Obj
                 [
                   ("suite_throughput", Obs.Json.List rows);
                   ("host_recommended_domains", Obs.Json.Int host_domains);
                   ("speedup_enforced", Obs.Json.Bool require);
                 ])
            ~started ~wall_s:(Unix.gettimeofday () -. started) ~outcome
            ~uops:committed ~gc Obs.Counters.default
        in
        Printf.printf "bench ledger: run %d recorded in %s\n" s.Obs.Ledger.id
          dir
      with Sys_error msg -> Printf.eprintf "bench ledger not written: %s\n" msg)
  | None -> ());
  (* Fail last, after the JSON and ledger evidence is on disk. *)
  if !failures <> [] then begin
    List.iter print_endline (List.rev !failures);
    exit 1
  end

(* ---- auto-tuner study ---------------------------------------------------- *)

(* CLUSTEER_BENCH_STUDY=tune: one tiny champion/challenger cycle of
   the auto-tuner (deterministic 4-evaluation grid over the "vc" space
   on two workloads — the same shape `make tune-smoke` drives through
   the CLI), timed end to end. Reports evaluations/sec and the study
   verdict as BENCH JSON so tuner-throughput regressions are visible
   next to the simulation numbers. *)
let run_tune_study () =
  heading "Tune study: champion/challenger auto-tuner cycle";
  let module Tune = Clusteer_tune in
  let space =
    match Tune.Param_space.find "vc" with
    | Ok s -> s
    | Error (`Msg m) -> failwith m
  in
  let workloads = List.map Spec2000.find [ "gzip-1"; "vpr-1" ] in
  let max_evals = 4 in
  let tune_uops = min uops 4_000 in
  let t0 = Unix.gettimeofday () in
  let study =
    Tune.Study.run ~space ~algo:Tune.Search.Grid ~seed:1 ~max_evals ~workloads
      ~clusters:2 ~uops:tune_uops ~tie_seeds:1
      ~progress:(fun line -> Printf.printf "  %s\n" line)
      ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  let evals = List.length study.Tune.Study.evals in
  let winner = Tune.Study.winner study in
  Printf.printf "%d evaluations in %.3f s (%.2f evals/sec)\n" evals dt
    (float_of_int evals /. dt);
  Printf.printf "winner: %s (score %.4f)\n"
    (Tune.Param_space.label space winner.Tune.Study.candidate)
    winner.Tune.Study.score;
  write_bench_json
    [
      ("tune_space", Obs.Json.Str (Tune.Param_space.name space));
      ("tune_search", Obs.Json.Str study.Tune.Study.search);
      ("tune_evals", Obs.Json.Int evals);
      ("tune_uops", Obs.Json.Int tune_uops);
      ("tune_seconds", Obs.Json.Float dt);
      ("tune_evals_per_sec", Obs.Json.Float (float_of_int evals /. dt));
      ("tune_winner_score", Obs.Json.Float winner.Tune.Study.score);
      ( "tune_winner_label",
        Obs.Json.Str (Tune.Param_space.label space winner.Tune.Study.candidate)
      );
      ( "tune_challenger_wins",
        Obs.Json.Bool study.Tune.Study.ab.Tune.Study.challenger_wins );
    ]

(* ---- interconnect-topology study ----------------------------------------- *)

(* CLUSTEER_BENCH_STUDY=topo: price the interconnect fabrics the
   topology subsystem models (lib/topo) on an 8-cluster machine. The
   adversarial workloads are built to stress inter-cluster copies, so
   the mesh and hierarchical fabrics must visibly move the copy-stall
   and link-transfer counters off the paper's free point-to-point
   baseline; `make topo-smoke` greps the hier2x4 entries out of the
   BENCH JSON. *)
let run_topo_study () =
  heading "Topology study: copy cost across interconnect fabrics (8 clusters)";
  let bench_uops = min uops 5_000 in
  let topologies =
    [
      Topology.p2p ~clusters:8 ();
      Topology.ring ~clusters:8 ();
      Topology.mesh ~cols:4 ~rows:2 ();
      Topology.hier ~groups:2 ~group_size:4 ();
    ]
  in
  let workloads =
    Clusteer_workloads.Adversarial.all
    @ [ ("mcf", Synth.build (Spec2000.find "mcf")) ]
  in
  let configs =
    [
      Clusteer.Configuration.Op;
      Clusteer.Configuration.Vc { virtual_clusters = 2 };
    ]
  in
  Printf.printf "%-10s %-12s %-6s %8s %12s %12s %12s\n" "topology" "workload"
    "config" "ipc" "copies/kuop" "copy_stall%" "links/kuop";
  let entries =
    List.concat_map
      (fun topology ->
        let machine = { (Config.default ~clusters:8) with Config.topology } in
        List.concat_map
          (fun (wname, w) ->
            let runs =
              Runner.run_workload ~machine ~configs ~uops:bench_uops w
            in
            List.map
              (fun (cname, (s : Stats.t)) ->
                let per_kuop v =
                  1000.0 *. float_of_int v
                  /. float_of_int (max 1 s.Stats.committed)
                in
                let stall_pct =
                  100.0
                  *. float_of_int s.Stats.stall_copyq_full
                  /. float_of_int (max 1 s.Stats.cycles)
                in
                Printf.printf
                  "%-10s %-12s %-6s %8.3f %12.1f %11.1f%% %12.1f\n"
                  (Topology.name topology) wname cname (Stats.ipc s)
                  (per_kuop s.Stats.copies_generated)
                  stall_pct
                  (per_kuop s.Stats.link_transfers);
                Obs.Json.Obj
                  [
                    ("topology", Obs.Json.Str (Topology.name topology));
                    ("workload", Obs.Json.Str wname);
                    ("config", Obs.Json.Str cname);
                    ("ipc", Obs.Json.Float (Stats.ipc s));
                    ( "copies_per_kuop",
                      Obs.Json.Float (per_kuop s.Stats.copies_generated) );
                    ("copy_stall_pct", Obs.Json.Float stall_pct);
                    ( "links_per_kuop",
                      Obs.Json.Float (per_kuop s.Stats.link_transfers) );
                  ])
              runs)
          workloads)
      topologies
  in
  write_bench_json
    [
      ("topo_clusters", Obs.Json.Int 8);
      ("topo_uops", Obs.Json.Int bench_uops);
      ("topology_study", Obs.Json.List entries);
    ]

(* ---- prediction-accuracy study -------------------------------------------- *)

(* CLUSTEER_BENCH_STUDY=predict: how tight is the static communication
   cost model (lib/analysis) against simulated truth? Per workload and
   policy: the predicted copy rate (must-cross), the sound may-cross
   bound and the engine's measured copies/uop, plus the same drift
   check `csteer check --vs-run` runs. A drift error here means the
   static bound is unsound against the real engine — that is a build
   failure, not a data point. *)
let run_prediction_study () =
  heading "Prediction study: static cost model vs simulated copies (2 clusters)";
  let bench_uops = min uops 10_000 in
  let machine = Config.default ~clusters:2 in
  let workloads =
    List.map
      (fun n -> (n, Synth.build (Spec2000.find n)))
      [ "gzip-1"; "mcf"; "swim" ]
    @ Clusteer_workloads.Adversarial.all
  in
  let configs =
    [
      Clusteer.Configuration.Ob;
      Clusteer.Configuration.Vc { virtual_clusters = 2 };
      Clusteer.Configuration.Op;
    ]
  in
  Printf.printf "%-12s %-6s %10s %10s %10s %10s %6s\n" "workload" "config"
    "pred/uop" "bound/uop" "meas/uop" "bound use" "drift";
  let violations = ref 0 in
  let entries =
    List.concat_map
      (fun (wname, w) ->
        let program = w.Synth.program and likely = w.Synth.likely in
        List.map
          (fun config ->
            let registry = Obs.Counters.create () in
            let annot, policy =
              Clusteer.Configuration.prepare config ~program ~likely
                ~clusters:2 ~registry ()
            in
            let prewarm =
              Array.to_list
                (Array.map Clusteer_trace.Mem_model.extent w.Synth.streams)
            in
            let engine =
              Clusteer_uarch.Engine.create ~config:machine ~annot ~policy
                ~prewarm ()
            in
            let gen = Synth.trace w ~seed:1 in
            let stats =
              Clusteer_uarch.Engine.run ~warmup:0 engine
                ~source:(fun () -> Clusteer_trace.Tracegen.next gen)
                ~uops:bench_uops
            in
            let model, _ =
              Clusteer_analysis.Cost_model.analyze ~program ~annot
                ~topology:machine.Config.topology ~clusters:2 ()
            in
            let run =
              Clusteer_analysis.Dyn_check.observe_run ~registry stats
            in
            let drift =
              Clusteer_analysis.Dyn_check.check_drift ~model:model run
            in
            let errors =
              Clusteer_isa.Diag.count Clusteer_isa.Diag.Error drift
            in
            violations := !violations + errors;
            let cname = Clusteer.Configuration.name config in
            let dispatched =
              max 1 run.Clusteer_analysis.Dyn_check.dispatched
            in
            let measured =
              float_of_int stats.Stats.copies_generated
              /. float_of_int dispatched
            in
            let bound =
              Clusteer_analysis.Cost_model.copy_bound model ~dispatched
                ~remaps:run.Clusteer_analysis.Dyn_check.remaps
            in
            let bound_use =
              float_of_int stats.Stats.copies_generated
              /. float_of_int (max 1 bound)
            in
            Printf.printf "%-12s %-6s %10.3f %10.3f %10.3f %9.1f%% %6s\n"
              wname cname
              model.Clusteer_analysis.Cost_model.pred_copy_rate
              model.Clusteer_analysis.Cost_model.bound_copy_rate measured
              (100.0 *. bound_use)
              (if errors = 0 then "ok" else "FAIL");
            Obs.Json.Obj
              [
                ("workload", Obs.Json.Str wname);
                ("config", Obs.Json.Str cname);
                ( "pred_copy_rate",
                  Obs.Json.Float
                    model.Clusteer_analysis.Cost_model.pred_copy_rate );
                ( "bound_copy_rate",
                  Obs.Json.Float
                    model.Clusteer_analysis.Cost_model.bound_copy_rate );
                ("measured_copy_rate", Obs.Json.Float measured);
                ("bound_use", Obs.Json.Float bound_use);
                ("drift_errors", Obs.Json.Int errors);
              ])
          configs)
      workloads
  in
  write_bench_json
    [
      ("predict_uops", Obs.Json.Int bench_uops);
      ("prediction_study", Obs.Json.List entries);
    ];
  if !violations > 0 then begin
    Printf.eprintf
      "prediction study: %d drift violation(s) — the static bound is \
       unsound against the engine\n"
      !violations;
    exit 1
  end

(* ---- Bechamel micro-benchmarks ------------------------------------------- *)

let micro_point profile =
  let point = List.hd (Pinpoints.points profile) in
  point

let time_tables =
  Test.make ~name:"table1-3/complexity+config"
    (Staged.stage (fun () ->
         ignore (Clusteer_steer.Complexity.table_rows ());
         ignore (Config.describe Config.default_2c);
         ignore (Clusteer.Configuration.table3 ~clusters:2)))

let time_sec21 =
  Test.make ~name:"sec2.1/worked-example"
    (Staged.stage (fun () -> ignore (Experiments.section21_example ())))

let time_fig5_point =
  let point = micro_point (Spec2000.find "gzip-1") in
  Test.make ~name:"fig5/one-point-op-2c"
    (Staged.stage (fun () ->
         ignore
           (Runner.run_point ~warmup:200 ~machine:Config.default_2c
              ~configs:[ Clusteer.Configuration.Op ] ~uops:500 point)))

let time_fig6_metrics =
  let a = Stats.create ~clusters:2 and b = Stats.create ~clusters:2 in
  a.Stats.cycles <- 1000;
  a.Stats.copies_generated <- 10;
  b.Stats.cycles <- 1100;
  b.Stats.copies_generated <- 20;
  Test.make ~name:"fig6/scatter-metrics"
    (Staged.stage (fun () ->
         ignore (Metrics.speedup_pct ~of_:a ~over:b);
         ignore (Metrics.copy_reduction_pct ~of_:a ~over:b);
         ignore (Metrics.balance_improvement_pct ~of_:a ~over:b)))

let time_fig7_point =
  let point = micro_point (Spec2000.find "gzip-1") in
  Test.make ~name:"fig7/one-point-vc2-4c"
    (Staged.stage (fun () ->
         ignore
           (Runner.run_point ~warmup:200 ~machine:Config.default_4c
              ~configs:[ Clusteer.Configuration.Vc { virtual_clusters = 2 } ]
              ~uops:500 point)))

let time_vc_compile =
  let w = Synth.build (Spec2000.find "galgel") in
  Test.make ~name:"core/vc-partition-compile"
    (Staged.stage (fun () ->
         ignore
           (Clusteer.Hybrid.compile ~program:w.Synth.program
              ~likely:w.Synth.likely ~virtual_clusters:2 ())))

let time_rhop_compile =
  let w = Synth.build (Spec2000.find "galgel") in
  Test.make ~name:"core/rhop-compile"
    (Staged.stage (fun () ->
         ignore
           (Clusteer_compiler.Rhop.compile ~program:w.Synth.program
              ~likely:w.Synth.likely ~clusters:2 ())))

let time_tracegen =
  let w = Synth.build (Spec2000.find "gzip-1") in
  Test.make ~name:"substrate/tracegen-1k-uops"
    (Staged.stage (fun () ->
         let gen = Synth.trace w ~seed:1 in
         ignore (Clusteer_trace.Tracegen.take gen 1000)))

(* Observability overhead study: the engine guarantees that with no
   sink installed instrumentation is free (and the test suite checks
   the statistics stay bit-identical); here we price the "on" side —
   a full collector with interval telemetry on a real trace point. *)
let run_observability_overhead_study () =
  heading "Observability overhead (collector + interval telemetry)";
  let bench_uops = min uops 10_000 in
  let point = List.hd (Pinpoints.points (Spec2000.find "gzip-1")) in
  let configs = [ Clusteer.Configuration.Vc { virtual_clusters = 2 } ] in
  let run obs =
    let t0 = Sys.time () in
    let r =
      Runner.run_point ~machine:Config.default_2c ~configs ~uops:bench_uops ~obs
        point
    in
    (snd (List.hd r.Runner.runs), Sys.time () -. t0)
  in
  let off, t_off = run (fun _ -> None) in
  let null, t_null = run (fun _ -> Some Obs.Sink.null) in
  let col = Obs.Collector.create ~interval:1000 () in
  let on, t_on = run (fun _ -> Some (Obs.Collector.sink col)) in
  Printf.printf "statistics identical off/null/collector: %b\n"
    (Stats.equal off null && Stats.equal off on);
  Printf.printf "events %d (kept %d, dropped %d), interval samples %d\n"
    (Obs.Collector.event_count col)
    (List.length (Obs.Collector.events col))
    (Obs.Collector.dropped col)
    (List.length (Obs.Collector.samples col));
  Printf.printf "%-12s %10s\n" "sink" "cpu time";
  List.iter
    (fun (name, t) -> Printf.printf "%-12s %9.3fs\n" name t)
    [ ("off", t_off); ("null", t_null); ("collector", t_on) ]

let time_obs_off =
  let point = micro_point (Spec2000.find "gzip-1") in
  Test.make ~name:"obs/engine-500uops-no-sink"
    (Staged.stage (fun () ->
         ignore
           (Runner.run_point ~warmup:200 ~machine:Config.default_2c
              ~configs:[ Clusteer.Configuration.Op ] ~uops:500 point)))

let time_obs_collector =
  let point = micro_point (Spec2000.find "gzip-1") in
  Test.make ~name:"obs/engine-500uops-collector"
    (Staged.stage (fun () ->
         let col = Obs.Collector.create ~interval:100 () in
         ignore
           (Runner.run_point ~warmup:200 ~machine:Config.default_2c
              ~obs:(fun _ -> Some (Obs.Collector.sink col))
              ~configs:[ Clusteer.Configuration.Op ] ~uops:500 point)))

let run_microbenchmarks () =
  heading "Bechamel micro-benchmarks (ns per run, OLS on monotonic clock)";
  let tests =
    Test.make_grouped ~name:"clusteer"
      [
        time_tables;
        time_sec21;
        time_fig5_point;
        time_fig6_metrics;
        time_fig7_point;
        time_vc_compile;
        time_rhop_compile;
        time_tracegen;
        time_obs_off;
        time_obs_collector;
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name res acc -> (name, res) :: acc) results [] in
  List.iter
    (fun (name, res) ->
      match Analyze.OLS.estimates res with
      | Some (est :: _) ->
          if est > 1_000_000.0 then
            Printf.printf "%-40s %12.2f ms/run\n" name (est /. 1e6)
          else if est > 1_000.0 then
            Printf.printf "%-40s %12.2f us/run\n" name (est /. 1e3)
          else Printf.printf "%-40s %12.1f ns/run\n" name est
      | Some [] | None -> Printf.printf "%-40s (no estimate)\n" name)
    (List.sort compare rows)

let () =
  Printf.printf
    "clusteer bench harness: reproduction of Cai et al., IPPS 2008\n";
  (* CLUSTEER_BENCH_STUDY=throughput runs just the throughput/allocation
     study (the `make bench-smoke` entry point). *)
  match Sys.getenv_opt "CLUSTEER_BENCH_STUDY" with
  | Some "throughput" -> run_throughput_study ()
  | Some "tune" -> run_tune_study ()
  | Some "topo" -> run_topo_study ()
  | Some "predict" -> run_prediction_study ()
  | Some other ->
      Printf.eprintf
        "unknown CLUSTEER_BENCH_STUDY %S (try: throughput, tune, topo, \
         predict)\n"
        other;
      exit 2
  | None ->
  run_tables ();
  run_figures ();
  run_vc_threshold_ablation ();
  run_seq_par_ablation ();
  run_vc_count_ablation ();
  run_region_scope_ablation ();
  run_steer_depth_study ();
  run_extended_baselines ();
  run_topology_study ();
  run_vliw_study ();
  run_energy_study ();
  run_link_latency_study ();
  run_scaling_study ();
  run_prefetch_study ();
  run_kernel_table ();
  run_prediction_study ();
  run_observability_overhead_study ();
  run_throughput_study ();
  run_microbenchmarks ();
  print_newline ()
