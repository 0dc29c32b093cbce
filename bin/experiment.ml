(* csteer experiment: the one driver for every study. The paper's
   evaluation (Tables 1-3, the 2.1 worked example, Figures 5-7), the
   design-choice ablations of DESIGN.md, the extension studies and the
   harness's own throughput and tuner studies are each one entry of
   [studies]; `all` runs the table in order. *)

open Cmdliner
open Cli
module Stats = Clusteer_uarch.Stats
module Json = Clusteer_obs.Json
module Profile = Clusteer_workloads.Profile
module Pinpoints = Clusteer_workloads.Pinpoints
module Experiments = Clusteer_harness.Experiments
module Metrics = Clusteer_harness.Metrics
module Report = Clusteer_harness.Report
module Configuration = Clusteer.Configuration

type ctx = {
  label : string;  (** the study's name, as recorded in the ledger *)
  uops : int;  (** -n: the micro-op budget per simulation point *)
  profiles : Profile.t list option;  (** --benchmarks *)
  domains : int option;
  csv : string option;
  ledger : string option;
  out : out_channel;  (** a study's table: stdout, or stderr under --json *)
}

(* A study prints its table. One with a JSON document also returns the
   document's fields and its failure lines (empty on success); the
   driver prints the document under --json, then fails the run on any
   failure line, so the evidence is out before the exit. *)
type study =
  | Text of (ctx -> unit)
  | Doc of (ctx -> (string * Json.t) list * string list)

let heading ctx title =
  Printf.fprintf ctx.out "\n%s\n%s\n" title
    (String.make (String.length title) '=')

let vc2 = Configuration.Vc { virtual_clusters = 2 }

let progress name = Printf.eprintf "  running %s...\n%!" name

(* A ledger entry wants phase timings, so --ledger turns the per-shard
   profiler on; the sweep's merged registry then carries the
   profile.engine.*.ns histograms the entry snapshots. *)
let profiled ctx = ctx.ledger <> None

let record_sweep ctx f =
  Obs.Counters.reset Obs.Counters.default;
  let run, m = measure f in
  record ctx.ledger ~kind:"experiment" ~label:ctx.label
    ~config:
      (Json.Obj
         [ ("experiment", Json.Str ctx.label); ("uops", Json.Int ctx.uops) ])
    m;
  run

let export ctx write =
  Option.iter
    (fun dir -> List.iter (Printf.eprintf "wrote %s\n") (write dir))
    ctx.csv

(* ---- paper tables and figures ----------------------------------------- *)

let tables _ =
  Experiments.print_table1 ();
  print_newline ();
  Experiments.print_table2 ~clusters:2;
  print_newline ();
  Experiments.print_table3 ()

let sec21 _ = Experiments.print_section21 (Experiments.section21_example ())

(* Figures 5 and 6 slice one 2-cluster sweep, as in the paper. *)
let figures_2c ~fig5 ~fig6 ctx =
  let run =
    record_sweep ctx (fun () ->
        Experiments.run_2cluster ~uops:ctx.uops ?profiles:ctx.profiles
          ~progress ?domains:ctx.domains ~profiled:(profiled ctx) ())
  in
  if fig5 then begin
    let fig = Experiments.figure5_of run in
    Experiments.print_slowdown_figure
      ~title:
        "Figure 5: slowdown vs OP, 2-cluster machine\n\
         (paper averages: one-cluster 12.19, OB 6.50, RHOP 5.40, VC 2.62)"
      fig;
    export ctx (fun dir -> Report.write_slowdown_figure ~dir ~name:"fig5" fig)
  end;
  if fig6 then begin
    let fig = Experiments.figure6_of run in
    print_endline
      "(paper: a.1/b.1 VC reduces copies and stalls vs OB; a.2/b.2 VC vs RHOP\n\
      \ wins overall; a.3/b.3 OP generates fewer copies than VC)";
    Experiments.print_scatter_summary fig;
    Experiments.print_scatter_plots fig;
    export ctx (fun dir -> Report.write_scatter_figure ~dir fig)
  end

let fig7 ctx =
  let run =
    record_sweep ctx (fun () ->
        Experiments.run_4cluster ~uops:ctx.uops ?profiles:ctx.profiles
          ~progress ?domains:ctx.domains ~profiled:(profiled ctx) ())
  in
  let fig = Experiments.figure7_of run in
  Experiments.print_slowdown_figure
    ~title:
      "Figure 7: slowdown vs OP, 4-cluster machine\n\
       (paper averages: OB 12.45, RHOP 12.69, VC(4->4) 12.96, VC(2->4) 3.64)"
    fig;
  Printf.printf "VC(4->4) copy inflation over VC(2->4): %.1f%% (paper: 28%%)\n"
    (Experiments.copy_inflation run);
  export ctx (fun dir -> Report.write_slowdown_figure ~dir ~name:"fig7" fig)

(* ---- ablations --------------------------------------------------------- *)

(* The ablation and extension studies simulate the first simulation
   point of each of these profiles, for at most 10k micro-ops. *)
let ablation_profiles =
  List.map Spec2000.find [ "gzip-1"; "galgel"; "swim"; "gcc-1" ]

let ablation_uops ctx = min ctx.uops 10_000

(* Statistics per configuration name on [profile]'s first point. *)
let run_first ?(machine = Config.default_2c) ctx configs profile =
  (Runner.run_point ~machine ~configs ~uops:(ablation_uops ctx)
     (List.hd (Pinpoints.points profile)))
    .Runner.runs

let run_one ?machine ctx config profile =
  snd (List.hd (run_first ?machine ctx [ config ] profile))

(* VC(2) slowdown vs OP on [machine], in percent. *)
let vc_gap ctx machine profile =
  let runs = run_first ~machine ctx [ Configuration.Op; vc2 ] profile in
  Metrics.slowdown_pct ~baseline:(List.assoc "op" runs) (List.assoc "vc2" runs)

(* The per-profile study loop: one row per profile, the profile name
   followed by the study's already formatted column variants. *)
let profile_rows ?(profiles = ablation_profiles) ?(label = 12) cells =
  List.iter
    (fun profile ->
      Printf.printf "%-*s %s\n" label profile.Profile.name (cells profile))
    profiles

let variants fmt f vs =
  String.concat " " (List.map (fun v -> Printf.sprintf fmt (f v)) vs)

(* [config]'s statistics on every ablation profile's first point, on
   the canonical seed-1 stream after a 5000-uop warmup. *)
let seeded_runs ?params ctx config =
  List.map
    (fun profile ->
      let point = List.hd (Pinpoints.points profile) in
      Runner.run_workload ~seed:1 ~warmup:5000 ?params
        ~machine:Config.default_2c ~configs:[ config ] ~uops:(ablation_uops ctx)
        (Synth.build point.Pinpoints.profile)
      |> List.hd |> snd)
    ablation_profiles

let avg f runs =
  List.fold_left (fun acc s -> acc + f s) 0 runs / List.length runs

(* Design-choice ablation 1: the remap hysteresis threshold of the
   hardware mapping table (0 = the paper's always-remap semantics). *)
let vc_threshold ctx =
  heading ctx "Ablation: VC remap hysteresis threshold (extension; 0 = paper)";
  Printf.printf "%-10s %12s %14s %16s\n" "threshold" "avg cycles" "avg copies"
    "avg alloc stalls";
  List.iter
    (fun remap_threshold ->
      let runs =
        seeded_runs
          ~params:
            { Configuration.default_params with Configuration.remap_threshold }
          ctx vc2
      in
      Printf.printf "%-10d %12d %14d %16d\n" remap_threshold
        (avg (fun s -> s.Stats.cycles) runs)
        (avg (fun s -> s.Stats.copies_generated) runs)
        (avg Stats.allocation_stalls runs))
    [ 0; 4; 8; 16; 32 ]

(* Design-choice ablation 2: sequential vs parallel (rename-style)
   steering at full-trace scale (2.1 beyond the worked example). *)
let seq_par ctx =
  heading ctx
    "Ablation: sequential vs parallel OP steering (2.1 at trace scale)";
  Printf.printf "%-12s %14s %14s %12s\n" "benchmark" "seq copies" "par copies"
    "par slowdown";
  profile_rows (fun profile ->
      let runs =
        run_first ctx [ Configuration.Op; Configuration.Op_parallel ] profile
      in
      let op = List.assoc "op" runs and par = List.assoc "op-parallel" runs in
      Printf.sprintf "%14d %14d %11.2f%%" op.Stats.copies_generated
        par.Stats.copies_generated
        (Metrics.slowdown_pct ~baseline:op par))

(* Design-choice ablation 3: number of virtual clusters on the
   2-cluster machine (the paper fixes 2 "because more does not help"). *)
let vc_count ctx =
  heading ctx "Ablation: virtual-cluster count on the 2-cluster machine";
  Printf.printf "%-6s %12s %14s\n" "VCs" "avg cycles" "avg copies";
  List.iter
    (fun nvc ->
      let runs =
        List.map
          (run_one ctx (Configuration.Vc { virtual_clusters = nvc }))
          ablation_profiles
      in
      Printf.printf "%-6d %12d %14d\n" nvc
        (avg (fun s -> s.Stats.cycles) runs)
        (avg (fun s -> s.Stats.copies_generated) runs))
    [ 1; 2; 3; 4 ]

(* Design-choice ablation 4: the compiler's region scope. 3.2 claims
   software steering wins by inspecting "a bigger window of
   instructions" than the hardware can; shrinking the superblock
   budget should cost the software schemes performance. *)
let region_scope ctx =
  heading ctx "Ablation: compiler region scope (micro-ops per superblock)";
  Printf.printf "%-12s %14s %14s %14s\n" "scheme" "32-uop regions"
    "128-uop regions" "512-uop regions";
  let avg_cycles config region_uops =
    avg
      (fun s -> s.Stats.cycles)
      (seeded_runs
         ~params:{ Configuration.default_params with Configuration.region_uops }
         ctx config)
  in
  List.iter
    (fun config ->
      Printf.printf "%-12s %s\n" (Configuration.name config)
        (variants "%14d" (avg_cycles config) [ 32; 128; 512 ]))
    [ Configuration.Ob; Configuration.Rhop; vc2 ]

(* ---- extension studies ------------------------------------------------- *)

(* Quantify 2.1: charge the hardware-only schemes the extra decode
   stages their serialized dependence-check + vote logic would cost,
   and watch the hybrid overtake OP. *)
let steer_depth ctx =
  heading ctx "Extension: cost of serialized steering logic (2.1)";
  print_endline
    "(VC slowdown vs OP when OP pays extra pipe stages for its serialized\n\
     dependence-check + vote logic; negative = the hybrid is faster)";
  Printf.printf "%-14s %14s %14s %14s\n" "benchmark" "+0 stages" "+1 stage"
    "+2 stages";
  profile_rows ~label:14 (fun profile ->
      variants "%13.2f%%"
        (fun steer_serial_stages ->
          vc_gap ctx
            { Config.default_2c with Config.steer_serial_stages }
            profile)
        [ 0; 1; 2 ])

(* Baselines beyond Table 3: plain dependence-based steering (Canal et
   al.), the ancestor the paper's 3.1 positions OP against, and
   criticality-aware steering. *)
let baselines ctx =
  heading ctx "Extension: hardware baselines beyond Table 3 (slowdown vs OP)";
  Printf.printf "%-12s %8s %8s %8s %8s\n" "benchmark" "dep" "crit" "one-cl"
    "vc2";
  profile_rows (fun profile ->
      let runs =
        run_first ctx
          Configuration.[ Op; Dep; Crit; One_cluster; vc2 ]
          profile
      in
      variants "%7.2f%%"
        (fun name ->
          Metrics.slowdown_pct ~baseline:(List.assoc "op" runs)
            (List.assoc name runs))
        [ "dep"; "crit"; "one-cluster"; "vc2" ])

(* The VLIW substrate (3.3): software-only steering on its home ground.
   On the statically-scheduled machine, RHOP and the VC partition are
   competitive with unified assign-and-schedule; the big gaps of
   Figure 5 only exist on the out-of-order machine, which is the
   paper's 3.3 argument. *)
let vliw ctx =
  heading ctx "Extension: VLIW substrate (3.3) — static-schedule gap vs UAS";
  let machine = Clusteer_vliw.Machine.default ~clusters:2 in
  let { Configuration.region_uops; crit_min_scale; _ } =
    Configuration.default_params
  in
  Printf.printf "%-12s %10s %18s %18s\n" "benchmark" "UAS IPC" "RHOP gap"
    "VC-partition gap";
  profile_rows (fun profile ->
      let w = Synth.build profile in
      let program = w.Synth.program and likely = w.Synth.likely in
      let run mode =
        Clusteer_vliw.Eval.run machine ~program ~likely ~region_uops mode
      in
      let uas = run Clusteer_vliw.Eval.Unified in
      let gap assign =
        let s = run (Clusteer_vliw.Eval.Fixed assign) in
        (float_of_int s.Clusteer_vliw.Eval.cycles
         /. float_of_int uas.Clusteer_vliw.Eval.cycles
        -. 1.0)
        *. 100.0
      in
      Printf.sprintf "%10.2f %s" uas.Clusteer_vliw.Eval.static_ipc
        (variants "%17.2f%%" gap
           [
             (fun g -> Clusteer_compiler.Rhop.assign_region g ~clusters:2);
             (fun g ->
               Clusteer_compiler.Vc_partition.assign_region g
                 ~virtual_clusters:2 ~crit_min_scale);
           ]))

(* The energy argument of 1: a clustered backend with the hybrid
   steering vs an equally wide monolithic backend. Smaller per-cluster
   structures cost less per access; copies add events. *)
let energy ctx =
  heading ctx "Extension: energy per committed micro-op (arbitrary units)";
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
  Printf.printf "%-12s %12s %12s %14s %16s\n" "benchmark" "mono e/uop"
    "vc2 e/uop" "vc2 copy e%" "vc2 cycle delta";
  profile_rows (fun profile ->
      let mono =
        run_one ~machine:monolithic ctx Configuration.One_cluster profile
      in
      let vc = run_one ctx vc2 profile in
      let e_mono = Clusteer_uarch.Energy.estimate ~clusters:1 mono in
      let e_vc = Clusteer_uarch.Energy.estimate ~clusters:2 vc in
      Printf.sprintf "%12.2f %12.2f %13.1f%% %15.1f%%"
        e_mono.Clusteer_uarch.Energy.per_uop e_vc.Clusteer_uarch.Energy.per_uop
        (100.
        *. e_vc.Clusteer_uarch.Energy.copies
        /. Float.max 1e-9 e_vc.Clusteer_uarch.Energy.dynamic)
        ((float_of_int vc.Stats.cycles /. float_of_int mono.Stats.cycles -. 1.0)
        *. 100.))

(* Link latency sensitivity: Table 2's 1-cycle point-to-point links are
   optimistic for deeper technologies; the hybrid's advantage should be
   robust as copies get slower. *)
let link_latency ctx =
  heading ctx "Extension: inter-cluster link latency sensitivity (VC vs OP)";
  Printf.printf "%-12s %12s %12s %12s\n" "benchmark" "1 cycle" "2 cycles"
    "4 cycles";
  profile_rows (fun profile ->
      variants "%11.2f%%"
        (fun link_latency ->
          vc_gap ctx
            {
              Config.default_2c with
              Config.topology = Topology.p2p ~link_latency ~clusters:2 ();
            }
            profile)
        [ 1; 2; 4 ])

(* Cluster-count scaling beyond the paper (2 and 4 evaluated there; 8
   extrapolated): does VC(2->N) keep tracking OP? *)
let scaling ctx =
  heading ctx "Extension: cluster-count scaling, VC(2->N) slowdown vs OP";
  Printf.printf "%-12s %12s %12s %12s\n" "benchmark" "2 clusters" "4 clusters"
    "8 clusters";
  profile_rows (fun profile ->
      variants "%11.2f%%"
        (fun clusters -> vc_gap ctx (Config.default ~clusters) profile)
        [ 2; 4; 8 ])

(* An idealised next-line prefetcher: how much of the memory-bound
   benchmarks' stall time is prefetchable, and does the steering
   ranking survive a better memory system? *)
let prefetch ctx =
  heading ctx
    "Extension: idealised next-line prefetch (cycles, VC on 2 clusters)";
  Printf.printf "%-12s %14s %14s %10s\n" "benchmark" "no prefetch" "prefetch"
    "saved";
  profile_rows
    ~profiles:(List.map Spec2000.find [ "mcf"; "swim"; "equake"; "art-1" ])
    (fun profile ->
      let cycles prefetch_next_line =
        let machine = { Config.default_2c with Config.prefetch_next_line } in
        (run_one ~machine ctx vc2 profile).Stats.cycles
      in
      let off = cycles false and on = cycles true in
      Printf.sprintf "%14d %14d %9.1f%%" off on
        (100. *. float_of_int (off - on) /. float_of_int off))

(* Ground truth: the hand-written kernels under the main schemes. *)
let kernels ctx =
  heading ctx "Micro-kernels: analytically understood steering ground truth";
  Printf.printf "%-12s %9s %10s %10s %12s\n" "kernel" "op IPC" "one-cl" "vc2"
    "vc2 copies";
  List.iter
    (fun (name, kernel) ->
      let runs =
        Runner.run_workload ~machine:Config.default_2c
          ~configs:Configuration.[ Op; One_cluster; vc2 ]
          ~uops:(min ctx.uops 8_000) kernel
      in
      let stats n = List.assoc n runs in
      let op = stats "op" in
      let slow n =
        (float_of_int (stats n).Stats.cycles /. float_of_int op.Stats.cycles
        -. 1.0)
        *. 100.0
      in
      Printf.printf "%-12s %9.2f %9.1f%% %9.1f%% %12d\n" name (Stats.ipc op)
        (slow "one-cluster") (slow "vc2")
        (stats "vc2").Stats.copies_generated)
    Clusteer_workloads.Kernels.all

(* ---- interconnect fabrics ---------------------------------------------- *)

type fabric_row = { ipc : float; copies : float; stall : float; links : float }

(* The columns both fabric views report: IPC, copies and link transfers
   per 1000 committed micro-ops, and the share of cycles the copy queue
   stalled dispatch. [m] reads a statistic: one run's value, or a
   phase-weighted mean over a benchmark's points. *)
let fabric_row m =
  let per_kuop f (s : Stats.t) =
    1000.0 *. float_of_int (f s) /. float_of_int (max 1 s.Stats.committed)
  in
  {
    ipc = m Stats.ipc;
    copies = m (per_kuop (fun s -> s.Stats.copies_generated));
    stall =
      m (fun (s : Stats.t) ->
          100.0
          *. float_of_int s.Stats.stall_copyq_full
          /. float_of_int (max 1 s.Stats.cycles));
    links = m (per_kuop (fun s -> s.Stats.link_transfers));
  }

(* The --topology sweep: every built-in workload (the SPEC stand-ins
   plus the adversarial scenarios) on one machine whose interconnect
   is the named topology, under OP and the VC schemes: a per-fabric
   view of copy traffic, copy-queue stalls and IPC. Deterministic for
   any --domains. *)
let topology_sweep ctx name =
  let machine = machine_of ~clusters:4 (Some name) in
  let clusters = machine.Config.clusters in
  let configs =
    Configuration.Op :: vc2
    ::
    (if clusters <> 2 then [ Configuration.Vc { virtual_clusters = clusters } ]
     else [])
  in
  let grouped, adv =
    record_sweep ctx (fun () ->
        let grouped =
          Runner.run_grouped ~machine ~configs ~uops:ctx.uops
            ?domains:ctx.domains ~profiled:(profiled ctx) ~progress
            (Option.value ctx.profiles ~default:Spec2000.all)
        in
        let adv =
          List.map
            (fun (name, w) ->
              progress name;
              (name, Runner.run_workload ~machine ~configs ~uops:ctx.uops w))
            Clusteer_workloads.Adversarial.all
        in
        (grouped, adv))
  in
  let cells label config r =
    [|
      label;
      config;
      Printf.sprintf "%.4f" r.ipc;
      Printf.sprintf "%.1f" r.copies;
      Printf.sprintf "%.1f" r.stall;
      Printf.sprintf "%.1f" r.links;
    |]
  in
  let spec_rows =
    List.concat_map
      (fun ((p : Profile.t), results) ->
        List.map
          (fun cfg ->
            let config = Configuration.name cfg in
            cells p.Profile.name config
              (fabric_row (fun f -> Runner.weighted_metric results ~config ~f)))
          configs)
      grouped
  in
  let adv_rows =
    List.concat_map
      (fun (label, runs) ->
        List.map
          (fun (config, s) -> cells label config (fabric_row (fun f -> f s)))
          runs)
      adv
  in
  Printf.printf "topology sweep: %s\n"
    (Topology.describe machine.Config.topology);
  print_string
    (Clusteer_util.Table.render
       ~header:
         [|
           "workload";
           "config";
           "ipc";
           "copies/kuop";
           "copy_stall%";
           "links/kuop";
         |]
       (spec_rows @ adv_rows))

(* Price the interconnect fabrics the topology subsystem models
   (lib/topo) on an 8-cluster machine. The adversarial workloads are
   built to stress inter-cluster copies, so the mesh and hierarchical
   fabrics must visibly move the copy-stall and link-transfer counters
   off the paper's free point-to-point baseline. *)
let topo ctx =
  heading ctx
    "Topology study: copy cost across interconnect fabrics (8 clusters)";
  let uops = min ctx.uops 5_000 in
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
  Printf.fprintf ctx.out "%-10s %-12s %-6s %8s %12s %12s %12s\n" "topology"
    "workload" "config" "ipc" "copies/kuop" "copy_stall%" "links/kuop";
  let entries =
    List.concat_map
      (fun topology ->
        let machine = { (Config.default ~clusters:8) with Config.topology } in
        let tname = Topology.name topology in
        List.concat_map
          (fun (wname, w) ->
            Runner.run_workload ~machine ~configs:[ Configuration.Op; vc2 ]
              ~uops w
            |> List.map (fun (cname, s) ->
                   let r = fabric_row (fun f -> f s) in
                   Printf.fprintf ctx.out
                     "%-10s %-12s %-6s %8.3f %12.1f %11.1f%% %12.1f\n" tname
                     wname cname r.ipc r.copies r.stall r.links;
                   Json.Obj
                     [
                       ("topology", Json.Str tname);
                       ("workload", Json.Str wname);
                       ("config", Json.Str cname);
                       ("ipc", Json.Float r.ipc);
                       ("copies_per_kuop", Json.Float r.copies);
                       ("copy_stall_pct", Json.Float r.stall);
                       ("links_per_kuop", Json.Float r.links);
                     ]))
          workloads)
      topologies
  in
  ( [
      ("topo_clusters", Json.Int 8);
      ("topo_uops", Json.Int uops);
      ("topology_study", Json.List entries);
    ],
    [] )

(* ---- prediction accuracy ------------------------------------------------ *)

(* How tight is the static communication cost model (lib/analysis)
   against simulated truth? Per workload and policy: the predicted copy
   rate (must-cross), the sound may-cross bound and the engine's
   measured copies/uop, plus the drift check `csteer check --vs-run`
   runs. A drift error means the static bound is unsound against the
   real engine: that fails the study, it is not a data point. *)
let predict ctx =
  heading ctx
    "Prediction study: static cost model vs simulated copies (2 clusters)";
  let module Cost_model = Clusteer_analysis.Cost_model in
  let module Dyn_check = Clusteer_analysis.Dyn_check in
  let uops = min ctx.uops 10_000 in
  let machine = Config.default ~clusters:2 in
  let workloads =
    List.map
      (fun n -> (n, Synth.build (Spec2000.find n)))
      [ "gzip-1"; "mcf"; "swim" ]
    @ Clusteer_workloads.Adversarial.all
  in
  Printf.fprintf ctx.out "%-12s %-6s %10s %10s %10s %10s %6s\n" "workload"
    "config" "pred/uop" "bound/uop" "meas/uop" "bound use" "drift";
  let violations = ref 0 in
  let entries =
    List.concat_map
      (fun (wname, w) ->
        let program = w.Synth.program and likely = w.Synth.likely in
        List.map
          (fun config ->
            let registry = Obs.Counters.create () in
            let annot, _ =
              Configuration.prepare config ~program ~likely ~clusters:2 ()
            in
            let stats =
              Runner.run_workload ~seed:1 ~warmup:0 ~registry ~machine
                ~configs:[ config ] ~uops w
              |> List.hd |> snd
            in
            let model, _ =
              Cost_model.analyze ~program ~annot
                ~topology:machine.Config.topology ~clusters:2 ()
            in
            let run = Dyn_check.observe_run ~registry stats in
            let errors =
              Clusteer_isa.Diag.count Clusteer_isa.Diag.Error
                (Dyn_check.check_drift ~model run)
            in
            violations := !violations + errors;
            let cname = Configuration.name config in
            let dispatched = max 1 run.Dyn_check.dispatched in
            let measured =
              float_of_int stats.Stats.copies_generated
              /. float_of_int dispatched
            in
            let bound =
              Cost_model.copy_bound model ~dispatched
                ~remaps:run.Dyn_check.remaps
            in
            let bound_use =
              float_of_int stats.Stats.copies_generated
              /. float_of_int (max 1 bound)
            in
            Printf.fprintf ctx.out
              "%-12s %-6s %10.3f %10.3f %10.3f %9.1f%% %6s\n" wname cname
              model.Cost_model.pred_copy_rate model.Cost_model.bound_copy_rate
              measured (100.0 *. bound_use)
              (if errors = 0 then "ok" else "FAIL");
            Json.Obj
              [
                ("workload", Json.Str wname);
                ("config", Json.Str cname);
                ("pred_copy_rate", Json.Float model.Cost_model.pred_copy_rate);
                ( "bound_copy_rate",
                  Json.Float model.Cost_model.bound_copy_rate );
                ("measured_copy_rate", Json.Float measured);
                ("bound_use", Json.Float bound_use);
                ("drift_errors", Json.Int errors);
              ])
          Configuration.[ Ob; vc2; Op ])
      workloads
  in
  ( [
      ("predict_uops", Json.Int uops); ("prediction_study", Json.List entries);
    ],
    if !violations = 0 then []
    else
      [
        Printf.sprintf
          "prediction study: %d drift violation(s) — the static bound is \
           unsound against the engine"
          !violations;
      ] )

(* ---- observability overhead --------------------------------------------- *)

(* The engine guarantees that with no sink installed instrumentation is
   free (and the test suite checks the statistics stay bit-identical);
   here we price the "on" side: a full collector with interval
   telemetry on a real trace point. *)
let obs_overhead ctx =
  heading ctx "Observability overhead (collector + interval telemetry)";
  let point = List.hd (Pinpoints.points (Spec2000.find "gzip-1")) in
  let run obs =
    let t0 = Sys.time () in
    let r =
      Runner.run_point ~machine:Config.default_2c ~configs:[ vc2 ]
        ~uops:(min ctx.uops 10_000) ~obs point
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

(* ---- suite throughput + steering allocation ------------------------------ *)

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
    inflight;
    queue_free = (fun c _ -> free.(c));
    src_locations_into =
      (fun u buf ->
        let n = Array.length u.Clusteer_isa.Uop.srcs in
        for i = 0 to n - 1 do
          buf.(i) <- loc
        done;
        n);
    reg_location = (fun _ -> loc);
    annot;
  }

(* Decisions cycle through [uops] (a power-of-two count), so a policy
   with more than one path (crit's operand chase for critical micro-ops
   only) is measured on each. *)
let minor_words_per_decide policy view uops =
  let rounds = 20_000 in
  let mask = Array.length uops - 1 in
  (* Warm any lazily sized scratch out of the measurement. *)
  for i = 1 to 256 do
    ignore (policy.Clusteer_uarch.Policy.decide view uops.(i land mask))
  done;
  let before = Gc.minor_words () in
  for i = 1 to rounds do
    ignore (policy.Clusteer_uarch.Policy.decide view uops.(i land mask))
  done;
  (Gc.minor_words () -. before) /. float_of_int rounds

(* The scaling floor: the shared-nothing harness must reach these suite
   speedups or the study fails. A domain count the host cannot run in
   parallel ([Domain.recommended_domain_count () < domains]) downgrades
   that check to an explicit SKIP line, so small machines still run
   the study. Bit-identity across domain counts has no such hatch: a
   mismatch always fails. *)
let required_speedup domains =
  if domains >= 4 then 3.0 else if domains >= 2 then 1.5 else 0.0

(* The throughput study reports, per domain count, the median of
   [throughput_samples] samples, each at least [min_sample_s] long,
   and the median of the per-round speedups. *)
let throughput_samples = 5
let min_sample_s = 1.0

type throughput_sample = {
  ups : float;  (* committed micro-ops per second *)
  sweeps : int;  (* repetitions of the sweep in the sample *)
  identical : bool;  (* every repetition matched the sequential run *)
  minor_words : float;  (* per sweep, summed over its workers *)
  minor_gcs : float;  (* minor collections per sweep *)
}

let percentile xs p = Clusteer_util.Stats.percentile (Array.of_list xs) p
let median xs = percentile xs 50.0
let iqr xs = percentile xs 75.0 -. percentile xs 25.0

(* Minor-heap words per committed micro-op the whole simulation path
   (engine + trace generator filling columns, op on gzip-1) may
   allocate. Minor words on a fixed workload and seed do not depend on
   the host, so the budget is always enforced. *)
let max_engine_words_per_uop = 1.0

(* Minor-heap words per static micro-op [Configuration.prepare] may
   allocate for each software scheme on the probed workload (gzip-1).
   The compiler builds each region's graphs into flat arrays and reuses
   its working tables across regions; a budget missed means something
   on the compile path allocates per edge or per node again. Like the
   full-path budget it does not depend on the host. *)
let compile_words_budget = [ ("ob", 20.0); ("rhop", 60.0); ("vc2", 30.0) ]

(* 1. Suite throughput vs domain count. Each measurement replays the
   identical work (the harness is deterministic), so uops/sec is
   directly comparable across domain counts. On a single-core host the
   speedup column honestly reports ~1.0. Returns the JSON rows and the
   failure lines. *)
let suite_throughput ctx ~host_domains =
  let suite =
    List.map
      (fun n -> { (Spec2000.find n) with Profile.phases = 2 })
      [ "gzip-1"; "galgel"; "swim"; "gcc-1" ]
  in
  let configs = [ Configuration.Op; vc2 ] in
  let per_point_uops = min ctx.uops 2_000 in
  let npoints =
    List.fold_left (fun acc p -> acc + List.length (Pinpoints.points p)) 0 suite
  in
  let total_uops = npoints * List.length configs * per_point_uops in
  let sweep domains =
    Runner.run_suite ~domains ~machine:Config.default_2c ~configs
      ~uops:per_point_uops suite
  in
  let baseline = sweep 1 in
  (* Minor words of one sweep, summed over its workers: a profiled
     sweep counts each point's words on the domain that ran it
     ([harness.gc.minor_words]), where [Gc] figures read here would see
     this domain's alone. It runs apart from the timed sweeps, as the
     profiler slows the engine. *)
  let sweep_words domains =
    let words = Obs.Counters.counter "harness.gc.minor_words" in
    let before = Obs.Counters.value words in
    ignore
      (Runner.run_suite ~profiled:true ~domains ~machine:Config.default_2c
         ~configs ~uops:per_point_uops suite);
    float_of_int (Obs.Counters.value words - before)
  in
  (* One sample: the sweep repeated until at least [min_sample_s] of
     wall time has passed, so timer resolution and start-up noise are
     small against it. Every repetition must be bit-identical to the
     sequential baseline. *)
  let sample domains =
    let gc0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let rec go sweeps identical =
      let results = sweep domains in
      let identical =
        identical
        && List.for_all2
             (fun (a : Runner.point_result) (b : Runner.point_result) ->
               List.for_all2
                 (fun (_, x) (_, y) -> Stats.equal x y)
                 a.Runner.runs b.Runner.runs)
             baseline results
      in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < min_sample_s then go (sweeps + 1) identical
      else
        let gc1 = Gc.quick_stat () in
        let per_sweep x = x /. float_of_int sweeps in
        {
          ups = float_of_int (sweeps * total_uops) /. dt;
          sweeps;
          identical;
          minor_words = sweep_words domains;
          minor_gcs =
            per_sweep
              (float_of_int
                 (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
        }
    in
    go 1 true
  in
  let domain_counts = [ 1; 2; 4 ] in
  (* Rounds interleave the domain counts, so slow drift in host load
     touches every column alike. *)
  let rounds =
    List.init throughput_samples (fun _ ->
        List.map (fun d -> (d, sample d)) domain_counts)
  in
  let samples d = List.map (List.assoc d) rounds in
  (* Speedup is the median of each round's own ratio to its 1-domain
     sample: a round's samples run back to back, so host load that
     drifts between rounds cancels out of the ratio. *)
  let speedup_at d =
    median
      (List.map
         (fun round -> (List.assoc d round).ups /. (List.assoc 1 round).ups)
         rounds)
  in
  let pr fmt = Printf.fprintf ctx.out fmt in
  pr
    "%d points x %d configs x %d uops (%d uops per sweep); median of %d \
     samples of >= %.0f s per domain count\n"
    npoints (List.length configs) per_point_uops total_uops throughput_samples
    min_sample_s;
  pr "%-8s %14s %8s %9s %8s %10s %13s %10s\n" "domains" "uops/sec" "spread"
    "speedup" "sweeps" "identical" "minor words" "minor gcs";
  pr "%-8s %14s %8s %9s %8s %10s %13s %10s\n" "" "(median)" "(iqr)" ""
    "/sample" "" "/sweep" "/sweep";
  let row domains =
    let ss = samples domains in
    let med f = median (List.map f ss) in
    let ups = median (List.map (fun s -> s.ups) ss) in
    let spread = iqr (List.map (fun s -> s.ups) ss) /. ups in
    let identical = List.for_all (fun s -> s.identical) ss in
    let sweeps = med (fun s -> float_of_int s.sweeps) in
    let mw = med (fun s -> s.minor_words) in
    let mc = med (fun s -> s.minor_gcs) in
    let speedup = speedup_at domains in
    pr "%-8d %14.0f %7.1f%% %8.2fx %8.0f %10b %13.2e %10.1f\n" domains ups
      (100.0 *. spread) speedup sweeps identical mw mc;
    ( Json.Obj
        [
          ("domains", Json.Int domains);
          ("samples", Json.Int (List.length ss));
          ("uops_per_sec", Json.Float ups);
          ("spread", Json.Float spread);
          ("speedup", Json.Float speedup);
          ("sweeps_per_sample", Json.Float sweeps);
          ("identical", Json.Bool identical);
          ("minor_words_per_sweep", Json.Float mw);
          ("minor_collections_per_sweep", Json.Float mc);
        ],
      (domains, speedup, identical) )
  in
  let rows = List.map row domain_counts in
  let check (domains, speedup, identical) =
    let required = required_speedup domains in
    (if identical then []
     else
       [
         Printf.sprintf
           "throughput: FAIL results at %d domains not bit-identical to the \
            sequential run"
           domains;
       ])
    @
    if domains = 1 then []
    else if host_domains < domains then begin
      pr
        "throughput: SKIP speedup check at %d domains (host recommends %d \
         domain%s, cannot run %d in parallel)\n"
        domains host_domains
        (if host_domains = 1 then "" else "s")
        domains;
      []
    end
    else if speedup < required then
      [
        Printf.sprintf
          "throughput: FAIL suite speedup at %d domains %.2fx < required %.2fx"
          domains speedup required;
      ]
    else begin
      pr "throughput: OK suite speedup at %d domains %.2fx >= %.2fx\n" domains
        speedup required;
      []
    end
  in
  (List.map fst rows, List.concat_map (fun (_, r) -> check r) rows)

(* 2. Minor-heap words allocated per steering decision, against a
   constant-location probe view: the fast-path contract is 0.0 for
   every policy. 3. Engine-level allocation per committed micro-op,
   including the trace generator: the whole per-uop simulation path. *)
let allocation ctx =
  let workload = Synth.build (Spec2000.find "gzip-1") in
  let prepare config =
    Configuration.prepare config ~program:workload.Synth.program
      ~likely:workload.Synth.likely ~clusters:2 ()
  in
  (* Every policy is built the way a simulation builds it; the probe
     view carries the hybrid's annotation. *)
  let policies =
    List.map
      (fun config -> (Configuration.name config, prepare config))
      Configuration.[ Op; Op_parallel; Dep; Crit; vc2; One_cluster; Ob; Rhop ]
  in
  let view =
    alloc_probe_view ~clusters:2 ~annot:(fst (List.assoc "vc2" policies))
  in
  let trace =
    Clusteer_trace.Columns.of_generator (Synth.trace workload ~seed:1)
  in
  let probe =
    Clusteer_trace.Columns.ensure trace 63;
    Array.init 64 (fun i ->
        trace.Clusteer_trace.Columns.uops.(trace.Clusteer_trace.Columns.sid.(i)))
  in
  Printf.fprintf ctx.out "\n%-12s %22s\n" "policy" "minor words/decision";
  let per_decide =
    List.map
      (fun (name, (_, policy)) ->
        let words = minor_words_per_decide policy view probe in
        Printf.fprintf ctx.out "%-12s %22.4f\n" name words;
        (name, Json.Float words))
      policies
  in
  let engine_words =
    let annot, policy = prepare Configuration.Op in
    let prewarm =
      Array.to_list
        (Array.map Clusteer_trace.Mem_model.extent workload.Synth.streams)
    in
    (* By hand, not through Runner: the delta must count the engine
       contract alone, without the harness's own allocation. *)
    let engine =
      Clusteer_uarch.Engine.create ~config:Config.default_2c ~annot ~policy
        ~prewarm ()
    in
    Clusteer_trace.Columns.rewind trace (Synth.trace workload ~seed:1);
    let before = Gc.minor_words () in
    let stats =
      Clusteer_uarch.Engine.run_columns ~warmup:0 engine ~trace
        ~uops:(min ctx.uops 20_000)
    in
    (Gc.minor_words () -. before) /. float_of_int stats.Stats.committed
  in
  Printf.fprintf ctx.out "%-12s %22.1f  (engine + tracegen, op policy)\n"
    "full-path" engine_words;
  let failures =
    if engine_words > max_engine_words_per_uop then
      [
        Printf.sprintf
          "throughput: FAIL full-path allocation %.1f minor words/uop > \
           budget %.1f"
          engine_words max_engine_words_per_uop;
      ]
    else begin
      Printf.fprintf ctx.out
        "throughput: OK full-path allocation %.1f minor words/uop <= %.1f\n"
        engine_words max_engine_words_per_uop;
      []
    end
  in
  let static_uops =
    float_of_int workload.Synth.program.Clusteer_isa.Program.uop_count
  in
  Printf.fprintf ctx.out "\n%-12s %22s\n" "compile" "minor words/static uop";
  let compile_words =
    List.map
      (fun (name, budget) ->
        let config = Result.get_ok (Configuration.of_name name) in
        let before = Gc.minor_words () in
        ignore (prepare config);
        let words = (Gc.minor_words () -. before) /. static_uops in
        Printf.fprintf ctx.out "%-12s %22.1f  (budget %.1f)\n" name words budget;
        (name, words, budget))
      compile_words_budget
  in
  let compile_failures =
    List.filter_map
      (fun (name, words, budget) ->
        if words > budget then
          Some
            (Printf.sprintf
               "throughput: FAIL %s compile allocation %.1f minor words/static \
                uop > budget %.1f"
               name words budget)
        else None)
      compile_words
  in
  if compile_failures = [] then
    Printf.fprintf ctx.out
      "throughput: OK compile allocation within budget for %s\n"
      (String.concat ", " (List.map fst compile_words_budget));
  ( per_decide,
    engine_words,
    List.map (fun (name, words, _) -> (name, Json.Float words)) compile_words,
    failures @ compile_failures )

let throughput ctx =
  heading ctx "Throughput study: parallel harness + zero-allocation steering";
  let host_domains = Domain.recommended_domain_count () in
  let (rows, scaling_failures), m =
    measure (fun () -> suite_throughput ctx ~host_domains)
  in
  let per_decide, engine_words, compile_words, alloc_failures =
    allocation ctx
  in
  let failures = scaling_failures @ alloc_failures in
  (* The speedup table goes to the run ledger, the same durable trail
     the sweeps leave, so scaling regressions show up in `csteer runs
     list` next to everything else. *)
  record ctx.ledger ~kind:"bench" ~label:"suite_throughput"
    ~config:
      (Json.Obj
         [
           ("suite_throughput", Json.List rows);
           ("host_recommended_domains", Json.Int host_domains);
         ])
    ~outcome:(if failures = [] then "ok" else "fail")
    m;
  ( [
      ("suite_throughput", Json.List rows);
      ("host_recommended_domains", Json.Int host_domains);
      ( "speedup_required",
        Json.Obj
          [
            ("2", Json.Float (required_speedup 2));
            ("4", Json.Float (required_speedup 4));
          ] );
      ("steering_alloc_words_per_decide", Json.Obj per_decide);
      ("engine_minor_words_per_uop", Json.Float engine_words);
      ("compile_words_per_static_uop", Json.Obj compile_words);
    ],
    failures )

(* ---- auto-tuner -------------------------------------------------------- *)

(* One tiny champion/challenger cycle of the auto-tuner (a
   deterministic 4-evaluation grid over the "vc" space on two
   workloads, the shape `make tune-smoke` drives through `csteer
   tune`), timed end to end, so tuner-throughput regressions are
   visible next to the simulation numbers. *)
let tune ctx =
  heading ctx "Tune study: champion/challenger auto-tuner cycle";
  let module Tune = Clusteer_tune in
  let space =
    match Tune.Param_space.find "vc" with
    | Ok s -> s
    | Error (`Msg m) -> failwith m
  in
  let uops = min ctx.uops 4_000 in
  let t0 = Unix.gettimeofday () in
  let study =
    Tune.Study.run ~space ~algo:Tune.Search.Grid ~seed:1 ~max_evals:4
      ~workloads:(List.map Spec2000.find [ "gzip-1"; "vpr-1" ])
      ~clusters:2 ~uops ~tie_seeds:1
      ~progress:(fun line -> Printf.fprintf ctx.out "  %s\n" line)
      ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  let evals = List.length study.Tune.Study.evals in
  let winner = Tune.Study.winner study in
  let label = Tune.Param_space.label space winner.Tune.Study.candidate in
  Printf.fprintf ctx.out "%d evaluations in %.3f s (%.2f evals/sec)\n" evals dt
    (float_of_int evals /. dt);
  Printf.fprintf ctx.out "winner: %s (score %.4f)\n" label
    winner.Tune.Study.score;
  ( [
      ("tune_space", Json.Str (Tune.Param_space.name space));
      ("tune_search", Json.Str study.Tune.Study.search);
      ("tune_evals", Json.Int evals);
      ("tune_uops", Json.Int uops);
      ("tune_seconds", Json.Float dt);
      ("tune_evals_per_sec", Json.Float (float_of_int evals /. dt));
      ("tune_winner_score", Json.Float winner.Tune.Study.score);
      ("tune_winner_label", Json.Str label);
      ( "tune_challenger_wins",
        Json.Bool study.Tune.Study.ab.Tune.Study.challenger_wins );
    ],
    [] )

(* ---- the study table ---------------------------------------------------- *)

(* The sweep flags a study may read. One given to a study that does not
   read it is refused, not silently ignored. *)
let figure_flags = [ "--benchmarks"; "--csv"; "--domains" ]
let topology_flags = [ "--benchmarks"; "--domains" ]

(* Every study, in `all` order, with the sweep flags it reads. *)
let studies =
  [
    ("tables", [], Text tables);
    ("sec21", [], Text sec21);
    ("fig5", figure_flags, Text (figures_2c ~fig5:true ~fig6:false));
    ("fig6", figure_flags, Text (figures_2c ~fig5:false ~fig6:true));
    ("fig56", figure_flags, Text (figures_2c ~fig5:true ~fig6:true));
    ("fig7", figure_flags, Text fig7);
    ("vc-threshold", [], Text vc_threshold);
    ("seq-par", [], Text seq_par);
    ("vc-count", [], Text vc_count);
    ("region-scope", [], Text region_scope);
    ("steer-depth", [], Text steer_depth);
    ("baselines", [], Text baselines);
    ("topo", [], Doc topo);
    ("vliw", [], Text vliw);
    ("energy", [], Text energy);
    ("link-latency", [], Text link_latency);
    ("scaling", [], Text scaling);
    ("prefetch", [], Text prefetch);
    ("kernels", [], Text kernels);
    ("predict", [], Doc predict);
    ("obs", [], Text obs_overhead);
    ("throughput", [], Doc throughput);
    ("tune", [], Doc tune);
  ]

(* fig56 prints fig5 and fig6 from one sweep, so `all` skips those two. *)
let all_studies =
  List.filter (fun (name, _, _) -> name <> "fig5" && name <> "fig6") studies

let study_names = List.map (fun (name, _, _) -> name) studies
let names = String.concat ", " (study_names @ [ "all" ])

let documented =
  String.concat ", "
    (List.filter_map
       (function name, _, Doc _ -> Some name | _, _, Text _ -> None)
       studies)

(* Who reads [flag]: the studies that do, `all` (which hands it to
   them) and the --topology sweep when it does. *)
let readers flag =
  List.filter_map
    (fun (name, reads, _) -> if List.mem flag reads then Some name else None)
    studies
  @ [ "all" ]
  @ if List.mem flag topology_flags then [ "--topology" ] else []

let run_study ~json ctx = function
  | Text run -> run ctx
  | Doc run ->
      let fields, failures = run ctx in
      if json then print_endline (Json.to_string (Json.Obj fields));
      if failures <> [] then begin
        List.iter prerr_endline failures;
        exit 1
      end

let experiment which topology uops benchmarks csv domains ledger json =
  protect @@ fun () ->
  let no_document what =
    usage_error "%s has no JSON document (--json takes one of %s)" what
      documented
  in
  (* What runs, the ledger label it records under, and the flags it
     reads. *)
  let label, reads, run =
    match (which, topology) with
    | Some w, Some _ ->
        usage_error "--topology is its own sweep; drop the %S argument" w
    | None, None ->
        usage_error "experiment needs a study name or --topology (studies: %s)"
          names
    | None, Some name ->
        if json then no_document "--topology";
        ("topo:" ^ name, topology_flags, fun ctx -> topology_sweep ctx name)
    | Some "all", None ->
        if json then no_document "all";
        ( "all",
          figure_flags,
          fun ctx ->
            List.iter
              (fun (name, _, s) -> run_study ~json { ctx with label = name } s)
              all_studies )
    | Some name, None -> (
        match List.find_opt (fun (n, _, _) -> n = name) studies with
        | None -> usage_error "unknown experiment %S (studies: %s)" name names
        | Some (_, _, Text _) when json -> no_document name
        | Some (_, reads, s) -> (name, reads, fun ctx -> run_study ~json ctx s))
  in
  let what = Option.value which ~default:"--topology" in
  List.iter
    (fun (flag, given) ->
      if given && not (List.mem flag reads) then
        usage_error "%s does not read %s (read by %s)" what flag
          (String.concat ", " (readers flag)))
    [
      ("--benchmarks", benchmarks <> None);
      ("--csv", csv <> None);
      ("--domains", domains <> None);
    ];
  run
    {
      label;
      uops;
      profiles = subset_profiles benchmarks;
      domains;
      csv;
      ledger;
      out = (if json then stderr else stdout);
    }

let cmd =
  let which =
    let doc =
      Printf.sprintf
        "Study to run: %s. $(b,all) runs every study in this order (fig56 \
         stands for fig5 and fig6). Omit it with $(b,--topology) to run the \
         interconnect sweep instead."
        (String.concat ", " study_names)
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"STUDY" ~doc)
  in
  let topology =
    let doc =
      "Run every built-in workload (SPEC stand-ins plus the adversarial \
       scenarios) on a machine with this interconnect: p2p, bus, ring, \
       mesh4x2, hier2x4, ... Parametric shapes use 4 clusters; mesh/hier \
       set their own cluster count."
    in
    Arg.(value & opt (some string) None & info [ "topology" ] ~doc ~docv:"NAME")
  in
  let benchmarks =
    let doc =
      "Comma-separated benchmark subset for the figure sweeps and \
       $(b,--topology) (default: full suite). Other studies refuse it."
    in
    Arg.(value & opt (some string) None & info [ "benchmarks" ] ~doc)
  in
  let csv =
    let doc =
      "Directory for CSV export of the figure data. Studies other than the \
       figures refuse it."
    in
    Arg.(value & opt (some string) None & info [ "csv" ] ~doc)
  in
  let domains =
    domains_arg
      "Worker domains for the sweep (default: the host's recommended \
       domain count, capped at 8). Results are identical for any value: \
       simulation points are sharded deterministically and merged in \
       input order. Use 1 to force a sequential run. Read by the figure \
       sweeps and $(b,--topology); other studies refuse it."
  in
  let ledger =
    ledger_arg
      "Record the figure and $(b,--topology) sweeps (with per-shard \
       pipeline profiling) and the throughput study's speedup table in the \
       run ledger at $(docv); inspect with $(b,csteer runs)."
  in
  let json =
    json_arg
      (Printf.sprintf
         "Print the study's JSON document on stdout, and its table on \
          stderr. Studies with a document: %s."
         documented)
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Run a study: a table or figure from the paper, an ablation or \
          extension study, the harness's throughput or tuner study, or \
          (with $(b,--topology)) a sweep of every workload over one \
          interconnect")
    Term.(
      const experiment $ which $ topology
      $ uops_arg ~doc:"Micro-op budget per simulation point (studies cap it)."
          20_000
      $ benchmarks $ csv $ domains $ ledger $ json)
