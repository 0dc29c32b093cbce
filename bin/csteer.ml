(* csteer: command-line driver for the clusteer reproduction.

   Subcommands:
     list        enumerate the SPEC CPU2000 workload profiles
     simulate    run one simulation point under one configuration
     compile     run a software pass and print the partition summary
     check       statically verify programs and annotations, predict their
                 communication cost, optionally check both against a run
     stats       measure a workload's dynamic instruction mix and footprint
     sweep       one point over 2/4/8 clusters and every steering config
     vliw        schedule a workload on the clustered VLIW substrate
     experiment  run a study: a paper table or figure, an ablation, an
                 extension or harness study, or a fabric sweep
     serve       run the long-lived simulation service on a Unix socket
     submit      send one request (or a stats/shutdown command) to a server
     batch       send a newline-JSON batch of requests to a server
     metrics     scrape a server (or run one point) as Prometheus text
     runs        list / show / prune the run ledger
     topo        list / show the built-in interconnect topologies
     tune        closed-loop parameter tuning (run / report / promote) *)

open Cmdliner
open Cli
module Stats = Clusteer_uarch.Stats
module Json = Clusteer_obs.Json
module Profile = Clusteer_workloads.Profile
module Pinpoints = Clusteer_workloads.Pinpoints
module Serve = Clusteer_serve

let phase_arg =
  Arg.(value & opt int 0 & info [ "phase" ] ~doc:"Simulation point index.")

(* A workload with [points] simulation points takes --phase 0 to
   [points - 1]. *)
let check_phase ~points phase =
  if phase < 0 || phase >= points then
    usage_error "--phase must be between 0 and %d (got %d)" (points - 1) phase

let config_conv =
  let print ppf c =
    Format.pp_print_string ppf (Clusteer.Configuration.name c)
  in
  Arg.conv (Clusteer.Configuration.of_name, print)

let config_arg =
  let doc =
    "Steering configuration: op, one-cluster, ob, rhop, vcN, op-parallel, \
     dep, crit."
  in
  Arg.(
    value
    & opt config_conv (Clusteer.Configuration.Vc { virtual_clusters = 2 })
    & info [ "p"; "policy" ] ~doc)

(* ---- list ---------------------------------------------------------- *)

let list_cmd =
  let run () =
    let header = [| "name"; "suite"; "phases"; "ilp"; "mem"; "fp"; "footprint" |] in
    let rows =
      List.map
        (fun (p : Profile.t) ->
          [|
            p.Profile.name;
            Profile.suite_name p.Profile.suite;
            string_of_int p.Profile.phases;
            string_of_int p.Profile.ilp;
            Printf.sprintf "%.2f" p.Profile.mem_ratio;
            Printf.sprintf "%.2f" p.Profile.fp_ratio;
            Printf.sprintf "%dKB" p.Profile.footprint_kb;
          |])
        Spec2000.all
    in
    print_string (Clusteer_util.Table.render ~header rows)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the SPEC CPU2000 workload profiles")
    Term.(const run $ const ())

(* ---- simulate ------------------------------------------------------ *)

type trace_format = Trace_json | Trace_csv

let trace_format_conv =
  let parse = function
    | "json" -> Ok Trace_json
    | "csv" -> Ok Trace_csv
    | s -> Error (`Msg (Printf.sprintf "unknown trace format %S" s))
  in
  let print ppf f =
    Format.pp_print_string ppf
      (match f with Trace_json -> "json" | Trace_csv -> "csv")
  in
  Arg.conv (parse, print)

let simulate workload clusters topology config uops phase trace_out
    trace_format stats_interval json_out ledger_dir profile_flag =
  protect @@ fun () ->
  let source = workload_of_name workload in
  let profile =
    match source with
    | `Spec p -> p
    | `Synth w -> w.Synth.profile
  in
  check_phase phase
    ~points:
      (match source with
      | `Spec p -> List.length (Pinpoints.points p)
      | `Synth _ -> 1);
  let machine = machine_of ~clusters topology in
  let clusters = machine.Config.clusters in
  (* Collect events/intervals only when some output wants them:
     an unobserved run keeps the zero-overhead engine path. *)
  let interval =
    if stats_interval > 0 then stats_interval
    else if trace_out <> None && trace_format = Trace_csv then 1000
    else 0
  in
  let collector =
    if trace_out <> None || interval > 0 then
      Some (Obs.Collector.create ~interval ())
    else None
  in
  Obs.Counters.reset Obs.Counters.default;
  (* A ledger entry wants phase timings in its snapshot, so asking
     for a ledger turns the profiler on. *)
  let profiled = profile_flag || ledger_dir <> None in
  let prof = if profiled then Some (Obs.Profile.create ()) else None in
  let obs _ = Option.map Obs.Collector.sink collector in
  let runs, m =
    measure (fun () ->
        match source with
        | `Spec p ->
            let point = List.nth (Pinpoints.points p) phase in
            (Runner.run_point ~machine ~configs:[ config ] ~uops ~obs
               ?profile:prof point)
              .Runner.runs
        | `Synth w ->
            Runner.run_workload ~machine ~configs:[ config ] ~uops ~obs
              ?profile:prof w)
  in
  let name, stats = List.hd runs in
  record ledger_dir ~kind:"simulate"
    ~label:(Printf.sprintf "%s/%d/%s" profile.Profile.name phase name)
    ~config:
      (Json.Obj
         [
           ("workload", Json.Str profile.Profile.name);
           ("phase", Json.Int phase);
           ("config", Json.Str name);
           ("clusters", Json.Int clusters);
           ("uops", Json.Int uops);
         ])
    m;
  Option.iter
    (fun path ->
      let c = Option.get collector in
      (match trace_format with
      | Trace_json ->
          Obs.Chrome_trace.write ~path ~clusters
            ~events:(Obs.Collector.events c)
            ~samples:(Obs.Collector.samples c)
      | Trace_csv ->
          Clusteer_util.Csv.write ~path
            ~header:(Obs.Interval.csv_header ~clusters)
            (List.map Obs.Interval.csv_row (Obs.Collector.samples c)));
      Printf.eprintf "trace written to %s (%d events kept, %d dropped)\n"
        path
        (List.length (Obs.Collector.events c))
        (Obs.Collector.dropped c))
    trace_out;
  if json_out then
    (* Machine-readable mode: exactly one JSON document on stdout. *)
    (* The "topology" key appears only when --topology was given:
       default runs keep the exact document the pinned goldens
       (test/goldens/seed_*.json) were captured from. *)
    let topo_field =
      if topology = None then []
      else [ ("topology", Topology.to_json machine.Config.topology) ]
    in
    let doc =
      Json.Obj
        ([
           ("workload", Json.Str profile.Profile.name);
           ("phase", Json.Int phase);
           ("config", Json.Str name);
           ("clusters", Json.Int clusters);
         ]
        @ topo_field
        @ [
          ("uops", Json.Int uops);
          ("stats", Stats.to_json stats);
          ( "energy",
            Clusteer_uarch.Energy.to_json
              (Clusteer_uarch.Energy.estimate ~clusters stats) );
          ("counters", Obs.Counters.to_json Obs.Counters.default);
          ( "intervals",
            match collector with
            | None -> Json.Null
            | Some c ->
                Json.List
                  (List.map Obs.Interval.to_json (Obs.Collector.samples c))
          );
        ])
    in
    print_endline (Json.to_string doc)
  else begin
    Printf.printf "%s phase %d under %s on %d clusters (%d uops):\n"
      profile.Profile.name phase name clusters uops;
    if topology <> None then
      Printf.printf "interconnect: %s\n"
        (Topology.describe machine.Config.topology);
    Format.printf "%a@." Stats.pp stats;
    let e = Clusteer_uarch.Energy.estimate ~clusters stats in
    Printf.printf
      "energy: %.0f units (%.2f/uop), %.0f%% static, %.1f%% of dynamic in copies\n"
      e.Clusteer_uarch.Energy.total e.Clusteer_uarch.Energy.per_uop
      (100. *. e.Clusteer_uarch.Energy.static_
      /. Float.max 1e-9 e.Clusteer_uarch.Energy.total)
      (100. *. e.Clusteer_uarch.Energy.copies
      /. Float.max 1e-9 e.Clusteer_uarch.Energy.dynamic);
    if collector <> None || profiled then
      Format.printf "steering counters:@,%a@." Obs.Counters.pp
        Obs.Counters.default
  end

let simulate_cmd =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ]
          ~doc:
            "Write an execution trace to this file (see $(b,--trace-format)).")
  in
  let trace_format =
    Arg.(
      value
      & opt trace_format_conv Trace_json
      & info [ "trace-format" ]
          ~doc:
            "Trace file format: $(b,json) is a Chrome trace_event file \
             (open in chrome://tracing or ui.perfetto.dev), $(b,csv) is \
             the per-interval telemetry series.")
  in
  let stats_interval =
    checked_int ~flag:"stats-interval" ~must:"non-negative" (fun n -> n >= 0)
      Arg.(
        value
        & opt int 0
        & info [ "stats-interval" ]
            ~doc:
              "Emit interval telemetry (IPC, copy rate, stall breakdown, \
               per-cluster dispatch share) every $(docv) cycles; 0 \
               disables."
            ~docv:"CYCLES")
  in
  let json_out =
    json_arg
      "Print final statistics (plus steering counters and any interval \
       series) as a single JSON document on stdout."
  in
  let ledger_dir =
    ledger_arg
      "Record the run in the ledger at $(docv) (implies $(b,--profile)); \
       inspect with $(b,csteer runs)."
  in
  let profile_flag =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attach the pipeline self-profiler: per-phase wall-time \
             histograms ($(b,profile.engine.*.ns)) in the counter \
             registry.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one simulation point under one configuration")
    Term.(
      const simulate $ workload_arg $ clusters_arg $ topology_arg $ config_arg
      $ uops_arg 20_000 $ phase_arg $ trace_out $ trace_format $ stats_interval
      $ json_out $ ledger_dir $ profile_flag)

(* ---- compile ------------------------------------------------------- *)

let compile workload clusters config emit =
  protect @@ fun () ->
  let w = synth_of_name workload in
  let params = Clusteer.Configuration.default_params in
  let annot, _policy =
    Clusteer.Configuration.prepare config ~program:w.Synth.program
      ~likely:w.Synth.likely ~clusters ~params ()
  in
  let n = w.Synth.program.Clusteer_isa.Program.uop_count in
  Printf.printf "%s: %d static micro-ops, scheme %s\n"
    w.Synth.profile.Profile.name n annot.Clusteer_isa.Annot.scheme;
  if annot.Clusteer_isa.Annot.virtual_clusters > 0 then begin
    let diag =
      Clusteer_compiler.Diagnostics.of_annot ~program:w.Synth.program
        ~likely:w.Synth.likely ~annot ~region_uops:params.region_uops
        ~max_chain:params.max_chain
    in
    Format.printf "%a@." Clusteer_compiler.Diagnostics.pp diag;
    (* Partition-quality findings share the analyzer's diagnostic
       vocabulary, so compile and check output read identically. *)
    List.iter
      (fun d -> Format.printf "%a@." Clusteer_isa.Diag.pp d)
      (Clusteer_compiler.Diagnostics.findings diag)
  end
  else begin
    let assigned =
      Array.to_list annot.Clusteer_isa.Annot.cluster_of
      |> List.filter (fun c -> c >= 0)
    in
    let counts = Array.make (max 1 clusters) 0 in
    List.iter (fun c -> counts.(c) <- counts.(c) + 1) assigned;
    Printf.printf "static clusters: %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int counts)))
  end;
  Option.iter
    (fun path ->
      Clusteer_isa.Annot_io.save ~path annot;
      Printf.printf "annotation written to %s\n" path)
    emit

let compile_cmd =
  let emit =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~doc:"Write the annotation (the ISA side channel) to a file.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Run a software steering pass and summarise the partition")
    Term.(const compile $ workload_arg $ clusters_arg $ config_arg $ emit)

(* ---- check --------------------------------------------------------- *)

(* The one analysis command: static verification and the communication
   cost model per target, plus (under --vs-run) a replay of the real
   policy on the real trace that feeds both the DYN remap-contract pass
   and the prediction-vs-run drift check (CM100..CM103). *)

module Analysis = Clusteer_analysis
module Diag = Clusteer_isa.Diag

let split_csv s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun s -> s <> "")

(* Default policy set: the three software schemes whose annotations the
   analyzer has invariants for, plus the clusters-wide VC variant on
   bigger machloads (Table 3's configuration list). *)
let default_check_policies clusters =
  let base =
    [
      Clusteer.Configuration.Ob;
      Clusteer.Configuration.Rhop;
      Clusteer.Configuration.Vc { virtual_clusters = 2 };
    ]
  in
  if clusters <> 2 then
    base @ [ Clusteer.Configuration.Vc { virtual_clusters = clusters } ]
  else base

(* --all covers every SPEC profile plus the three adversarial
   scenarios — the generator's outputs are part of the checked
   surface. *)
let resolve_synths ~all workloads =
  if all then
    List.map Synth.build Spec2000.all
    @ List.map snd Clusteer_workloads.Adversarial.all
  else
    match workloads with
    | None -> usage_error "check needs -w WORKLOADS or --all"
    | Some names ->
        List.map synth_of_name (split_csv names)

let resolve_configs ~machine policies =
  match policies with
  | None -> default_check_policies machine.Config.clusters
  | Some names ->
      List.map
        (fun name ->
          match Clusteer.Configuration.of_name name with
          | Ok c -> c
          | Error (`Msg e) -> usage_error "%s" e)
        (split_csv names)

(* --annot swaps in an externally supplied annotation, which only makes
   sense against exactly one workload × policy. A file that does not
   parse is a usage error, reported against its path. *)
let load_annot ~synths ~configs = function
  | None -> None
  | Some _ when List.length synths > 1 || List.length configs > 1 ->
      usage_error "--annot applies to exactly one workload and one policy"
  | Some path -> (
      match Clusteer_isa.Annot_io.load ~path with
      | annot -> Some annot
      | exception Failure msg -> usage_error "%s: %s" path msg)

type report = {
  label : string;
  model : Analysis.Cost_model.t;
  diags : Diag.t list;
  dispatched : int;  (** program uops the --vs-run replay dispatched *)
}

let check_one ~machine ~passes ~params ~annot ~vs_run ~uops (w : Synth.t)
    config =
  let clusters = machine.Config.clusters in
  let topology = machine.Config.topology in
  let program = w.Synth.program and likely = w.Synth.likely in
  (* Private counter registry per target: the drift check reads the
     policy's remap counters, and targets must not share mutable
     counter state. The annotation and the fabric reach the policy the
     same way the harness hands them over, so a --vs-run replay steers
     exactly like [csteer simulate] on the same fabric. *)
  let registry = Obs.Counters.create () in
  let { Clusteer.Configuration.region_uops; max_chain; slack_threshold; _ } =
    params
  in
  let annot, policy =
    Clusteer.Configuration.prepare config ~program ~likely ~clusters ~params
      ?annot ~registry ()
  in
  (* The cost model feeds the summary columns and the drift bounds
     whatever the pass selection (which may exclude "cost"). Its CM006
     findings mark an --annot file that does not fit the program or the
     machine: the checker reports it, and the compiler summary and the
     replay, which index by uop, VC and cluster, skip it. *)
  let model, corrupt =
    Analysis.Cost_model.analyze ~program ~annot ~topology ~clusters ()
  in
  let fits = corrupt = [] in
  let claimed =
    if fits && annot.Clusteer_isa.Annot.virtual_clusters > 0 then
      Some
        (Clusteer_compiler.Diagnostics.of_annot ~program ~likely ~annot
           ~region_uops ~max_chain)
    else None
  in
  let critical =
    match config with
    | Clusteer.Configuration.Crit ->
        Some
          (Clusteer_compiler.Crit_hints.compute ~program ~likely ~region_uops
             ~slack_threshold)
    | _ -> None
  in
  let replay =
    if not (vs_run && fits) then None
    else begin
      (* By hand, not through Runner: the replay wraps the policy in a
         recorder and must steer on the user's --annot. *)
      let policy, recorded = Analysis.Dyn_check.recording policy in
      let prewarm =
        Array.to_list
          (Array.map Clusteer_trace.Mem_model.extent w.Synth.streams)
      in
      let engine =
        Clusteer_uarch.Engine.create ~config:machine ~annot ~policy ~prewarm ()
      in
      let trace = Clusteer_trace.Columns.of_generator (Synth.trace w ~seed:1) in
      let stats =
        Clusteer_uarch.Engine.run_columns ~warmup:0 engine ~trace ~uops
      in
      Some (recorded (), Analysis.Dyn_check.observe_run ~registry stats)
    end
  in
  let label =
    Printf.sprintf "%s/%s" w.Synth.profile.Profile.name
      (Clusteer.Configuration.name config)
  in
  let target =
    Analysis.Checker.target ~label ~region_uops ~max_chain ?claimed ?critical
      ~slack_threshold ?events:(Option.map fst replay) ~program ~likely ~annot
      ~config:machine ()
  in
  let diags = Analysis.Checker.run ~passes target in
  let diags, dispatched =
    match replay with
    | None -> (diags, 0)
    | Some (_, run) ->
        ( List.sort Diag.compare
            (diags @ Analysis.Dyn_check.check_drift ~model run),
          run.Analysis.Dyn_check.dispatched )
  in
  { label; model; diags; dispatched }

let report_json { label; model; diags; dispatched } =
  Json.Obj
    [
      ("target", Json.Str label);
      ("model", Analysis.Cost_model.to_json model);
      ("dispatched", Json.Int dispatched);
      ("errors", Json.Int (Diag.count Diag.Error diags));
      ("warnings", Json.Int (Diag.count Diag.Warning diags));
      ("infos", Json.Int (Diag.count Diag.Info diags));
      ("diagnostics", Json.List (List.map Diag.to_json diags));
    ]

let check all workloads clusters topology policies passes annot_file
    region_uops vs_run uops strict json ledger_dir =
  protect @@ fun () ->
  let passes =
    match Analysis.Checker.select (split_csv passes) with
    | Ok ps -> ps
    | Error e ->
        usage_error "%s (expected ir, liv, vc, place, cost, dyn, topo, meta)" e
  in
  let synths = resolve_synths ~all workloads in
  let machine = machine_of ~clusters topology in
  let configs = resolve_configs ~machine policies in
  let annot = load_annot ~synths ~configs annot_file in
  let params =
    {
      Clusteer.Configuration.default_params with
      region_uops;
      topology = Some machine.Config.topology;
    }
  in
  let reports, m =
    measure (fun () ->
        List.concat_map
          (fun w ->
            List.map
              (check_one ~machine ~passes ~params ~annot ~vs_run ~uops w)
              configs)
          synths)
  in
  let failed =
    List.exists (fun r -> Analysis.Checker.failed ~strict r.diags) reports
  in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("strict", Json.Bool strict);
              ("vs_run", Json.Bool vs_run);
              ("topology", Topology.to_json machine.Config.topology);
              ("failed", Json.Bool failed);
              ("targets", Json.List (List.map report_json reports));
            ]))
  else begin
    List.iter
      (fun { label; model; diags; _ } ->
        Printf.printf
          "%s: %d error(s), %d warning(s), %d info | %s, pred %.3f copies/uop, \
           imbalance %.2f\n"
          label
          (Diag.count Diag.Error diags)
          (Diag.count Diag.Warning diags)
          (Diag.count Diag.Info diags)
          (Analysis.Cost_model.kind_name model.Analysis.Cost_model.kind)
          model.Analysis.Cost_model.pred_copy_rate
          model.Analysis.Cost_model.imbalance;
        List.iter
          (fun d ->
            if d.Diag.severity <> Diag.Info || strict then
              Format.printf "  %a@." Diag.pp d)
          diags)
      reports;
    Printf.printf "checked %d target(s)%s: %s\n" (List.length reports)
      (if vs_run then " with drift check" else "")
      (if failed then "FAIL" else "ok")
  end;
  record ledger_dir ~kind:"check"
    ~label:
      (Printf.sprintf "check/%d-targets%s" (List.length reports)
         (if vs_run then "/vs-run" else ""))
    ~config:
      (Json.Obj
         [
           ("targets", Json.Int (List.length reports));
           ("clusters", Json.Int machine.Config.clusters);
           ("topology", Json.Str (Topology.name machine.Config.topology));
           ("strict", Json.Bool strict);
           ("vs_run", Json.Bool vs_run);
         ])
    ~outcome:(if failed then "fail" else "ok")
    ~uops:(List.fold_left (fun acc r -> acc + r.dispatched) 0 reports)
    ~registry:(Obs.Counters.create ()) m;
  if failed then exit 1

let check_cmd =
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Check every built-in workload profile.")
  in
  let workloads =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "workloads" ]
          ~doc:"Comma-separated workload names (e.g. mcf,gzip)."
          ~docv:"NAMES")
  in
  let policies =
    Arg.(
      value
      & opt (some string) None
      & info [ "p"; "policies" ]
          ~doc:
            "Comma-separated steering configurations to verify (default: \
             ob,rhop,vc2, plus vcN on an N-cluster machine)."
          ~docv:"NAMES")
  in
  let passes =
    Arg.(
      value & opt string ""
      & info [ "passes" ]
          ~doc:
            "Comma-separated pass subset: $(b,ir), $(b,liv), $(b,vc), \
             $(b,place), $(b,cost), $(b,dyn), $(b,topo), $(b,meta). \
             Default: all applicable passes."
          ~docv:"LIST")
  in
  let annot_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "annot" ]
          ~doc:
            "Verify (and under $(b,--vs-run) replay) this annotation file \
             (from $(b,csteer compile --emit)) instead of the freshly \
             compiled one. Requires a single workload and policy."
          ~docv:"FILE")
  in
  let region_uops =
    Arg.(
      value
      & opt int Clusteer.Configuration.default_params.region_uops
      & info [ "region-uops" ]
          ~doc:"Region size used when recomputing chains and slack."
          ~docv:"N")
  in
  let vs_run =
    Arg.(
      value & flag
      & info [ "vs-run" ]
          ~doc:
            "Also simulate each target on its real trace: verify the \
             VC-table remap contract on the recorded decisions (leaders may \
             remap, followers must follow) and that the dynamic copy and \
             remap counters land inside the static bounds (drift codes \
             CM100..CM103).")
  in
  let uops =
    uops_arg ~doc:"Committed micro-ops to simulate under $(b,--vs-run)."
      ~docv:"N" 20_000
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Treat warnings as failures and print info findings (info \
             never fails).")
  in
  let json_out =
    json_arg
      "Print one JSON document with the per-target model and diagnostics."
  in
  let ledger_dir =
    ledger_arg
      "Record the check in the ledger at $(docv); inspect with $(b,csteer \
       runs)."
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify programs and steering annotations, predict \
          their communication cost, and optionally check a real run \
          against both (the remap contract and the static bounds)")
    Term.(
      const check $ all $ workloads $ clusters_arg $ topology_arg $ policies
      $ passes $ annot_file $ region_uops $ vs_run $ uops $ strict $ json_out
      $ ledger_dir)

(* ---- stats ---------------------------------------------------------- *)

let workload_stats workload uops =
  let w = synth_of_name workload in
  let mix = Clusteer_workloads.Analysis.measure w ~uops ~seed:1 in
  Printf.printf "%s (%d static micro-ops):\n"
    w.Synth.profile.Profile.name w.Synth.program.Clusteer_isa.Program.uop_count;
  Format.printf "%a@." Clusteer_workloads.Analysis.pp mix

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Measure a workload's dynamic instruction mix and footprint")
    Term.(const workload_stats $ workload_arg $ uops_arg 50_000)

(* ---- sweep ------------------------------------------------------------ *)

let sweep workload uops out =
  protect @@ fun () ->
  let point = List.hd (Pinpoints.points (spec_workload workload)) in
  let configs =
    [
      Clusteer.Configuration.Op;
      Clusteer.Configuration.One_cluster;
      Clusteer.Configuration.Ob;
      Clusteer.Configuration.Rhop;
      Clusteer.Configuration.Vc { virtual_clusters = 2 };
      Clusteer.Configuration.Dep;
      Clusteer.Configuration.Crit;
    ]
  in
  let rows = ref [] in
  List.iter
    (fun clusters ->
      let machine = Config.default ~clusters in
      let result = Runner.run_point ~machine ~configs ~uops point in
      List.iter
        (fun (name, (stats : Stats.t)) ->
          rows :=
            [
              string_of_int clusters;
              name;
              string_of_int stats.Stats.cycles;
              Printf.sprintf "%.4f" (Stats.ipc stats);
              string_of_int stats.Stats.copies_generated;
              string_of_int (Stats.allocation_stalls stats);
            ]
            :: !rows)
        result.Runner.runs)
    [ 2; 4; 8 ];
  let header =
    [ "clusters"; "config"; "cycles"; "ipc"; "copies"; "alloc_stalls" ]
  in
  let rows = List.rev !rows in
  (match out with
  | Some path ->
      Clusteer_util.Csv.write ~path ~header rows;
      Printf.printf "wrote %s (%d rows)\n" path (List.length rows)
  | None ->
      print_string
        (Clusteer_util.Table.render
           ~header:(Array.of_list header)
           (List.map Array.of_list rows)))

let sweep_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the sweep as CSV to this file.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep one simulation point over 2/4/8 clusters and every steering \
          configuration")
    Term.(const sweep $ workload_arg $ uops_arg 10_000 $ out)

(* ---- vliw ------------------------------------------------------------ *)

let vliw_compare workload clusters =
  let machine = Clusteer_vliw.Machine.default ~clusters in
  let single_block_loop (k : Synth.t) =
    (* body + exit: the shape the modulo scheduler pipelines. Multi-nest
       programs (e.g. adv-flip) take the acyclic per-region path. *)
    Array.length k.Synth.program.Clusteer_isa.Program.blocks = 2
  in
  match workload_of_name workload with
  | `Synth k when single_block_loop k ->
      (* Kernels are single-block loops: software-pipeline the body. *)
      let body =
        k.Clusteer_workloads.Synth.program.Clusteer_isa.Program.blocks.(0)
          .Clusteer_isa.Block.uops
      in
      let g = Clusteer_vliw.Modulo.loop_ddg_of_body body in
      let n = Array.length body in
      let local = Array.make n 0 in
      let spread = Array.init n (fun i -> i mod clusters) in
      let report name assignment =
        let r = Clusteer_vliw.Modulo.schedule machine g ~assignment () in
        Clusteer_vliw.Modulo.validate machine g ~assignment r;
        Printf.printf "  %-14s II=%d (mii %d), %d moves/iter\n" name
          r.Clusteer_vliw.Modulo.ii r.Clusteer_vliw.Modulo.mii
          r.Clusteer_vliw.Modulo.moves
      in
      Printf.printf "%s: modulo scheduling on the %d-cluster VLIW\n" workload
        clusters;
      report "one-cluster" local;
      report "round-robin" spread
  | other ->
      let w =
        match other with `Synth k -> k | `Spec p -> Synth.build p
      in
      let program = w.Synth.program and likely = w.Synth.likely in
      let { Clusteer.Configuration.region_uops; crit_min_scale; _ } =
        Clusteer.Configuration.default_params
      in
      let run name mode =
        let s =
          Clusteer_vliw.Eval.run machine ~program ~likely ~region_uops mode
        in
        Printf.printf "  %-14s static IPC %.2f  cycles %d  moves %d\n" name
          s.Clusteer_vliw.Eval.static_ipc s.Clusteer_vliw.Eval.cycles
          s.Clusteer_vliw.Eval.moves
      in
      Printf.printf "%s: acyclic scheduling on the %d-cluster VLIW\n"
        w.Synth.profile.Profile.name clusters;
      run "UAS" Clusteer_vliw.Eval.Unified;
      run "RHOP"
        (Clusteer_vliw.Eval.Fixed
           (fun g -> Clusteer_compiler.Rhop.assign_region g ~clusters));
      run "VC-partition"
        (Clusteer_vliw.Eval.Fixed
           (fun g ->
             Clusteer_compiler.Vc_partition.assign_region g
               ~virtual_clusters:clusters ~crit_min_scale))

let vliw_cmd =
  Cmd.v
    (Cmd.info "vliw"
       ~doc:
         "Schedule a workload on the clustered VLIW substrate (kernels are \
          software-pipelined; SPEC points are list-scheduled per region)")
    Term.(const vliw_compare $ workload_arg $ clusters_arg)

(* ---- serve / submit / batch ---------------------------------------- *)

let socket_arg =
  let doc = "Unix-domain socket path of the simulation service." in
  Arg.(
    value
    & opt string "_build/serve.sock"
    & info [ "s"; "socket" ] ~doc ~docv:"PATH")

let serve socket queue_depth domains cache_mb cache_dir ledger_dir
    profile_flag =
  protect @@ fun () ->
  let cfg =
    {
      (Serve.Server.default_config ~socket_path:socket) with
      Serve.Server.queue_depth;
      domains;
      cache_budget = cache_mb * 1024 * 1024;
      cache_dir;
      ledger_dir;
      profile = profile_flag;
      log = (fun msg -> Printf.eprintf "csteer serve: %s\n%!" msg);
    }
  in
  Serve.Server.serve cfg

let serve_cmd =
  let queue_depth =
    checked_int ~flag:"queue-depth" ~must:"positive" (fun n -> n > 0)
      Arg.(
        value & opt int 64
        & info [ "queue-depth" ]
            ~doc:
              "Admission bound: simulate requests beyond this many \
               in-flight misses per batch are rejected with \
               $(b,queue_full) instead of queued without bound."
            ~docv:"N")
  in
  let domains =
    domains_arg
      "Worker-pool domains (default: the harness default, capped at 8)."
  in
  let cache_mb =
    checked_int ~flag:"cache-mb" ~must:"non-negative" (fun n -> n >= 0)
      Arg.(
        value & opt int 64
        & info [ "cache-mb" ]
            ~doc:"In-memory result-cache budget, in megabytes." ~docv:"MB")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ]
          ~doc:
            "Spill evicted cache entries to $(docv)/<hash>.json and serve \
             misses from there (e.g. $(b,_cache))."
          ~docv:"DIR")
  in
  let ledger_dir =
    ledger_arg
      "Record every batch in the run ledger at $(docv) (implies \
       $(b,--profile)); inspect with $(b,csteer runs)."
  in
  let profile_flag =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attach the pipeline self-profiler: $(b,profile.serve.*.ns) \
             batch spans and the workers' $(b,profile.engine.*.ns) phase \
             timings, scrapeable via the $(b,metrics) command.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the batch simulation service on a Unix-domain socket until a \
          client sends shutdown")
    Term.(
      const serve $ socket_arg $ queue_depth $ domains $ cache_mb $ cache_dir
      $ ledger_dir $ profile_flag)

let print_simulate_response ~json line =
  if json then print_endline line
  else
    match Serve.Protocol.parse_response line with
    | Error e ->
        Printf.eprintf "csteer: unparseable response: %s\n" e;
        exit 1
    | Ok (Serve.Protocol.Result { hash; cached; result; _ }) ->
        let ipc =
          Option.bind (Json.member "stats" result) (Json.member "ipc")
          |> Option.map Json.to_float |> Option.join
        in
        let cycles =
          Option.bind (Json.member "stats" result) (Json.member "cycles")
          |> Option.map Json.to_int |> Option.join
        in
        Printf.printf "%s %s ipc=%s cycles=%s\n" hash
          (if cached then "cached" else "simulated")
          (match ipc with Some v -> Printf.sprintf "%.4f" v | None -> "?")
          (match cycles with Some v -> string_of_int v | None -> "?")
    | Ok (Serve.Protocol.Rejected { reason; _ }) ->
        Printf.eprintf "csteer: rejected: %s%s\n"
          (Serve.Protocol.reject_reason_name reason)
          (match reason with
          | Serve.Protocol.Check_failed m -> ": " ^ m
          | Serve.Protocol.Queue_full | Serve.Protocol.Timeout -> "");
        exit 1
    | Ok (Serve.Protocol.Error_reply { message; _ }) ->
        Printf.eprintf "csteer: server error: %s\n" message;
        exit 1
    | Ok _ ->
        Printf.eprintf "csteer: unexpected response\n";
        exit 1

let submit socket workload phase clusters config uops warmup seed deadline_ms
    stats shutdown json =
  protect @@ fun () ->
  if shutdown then begin
    match Serve.Client.shutdown ~socket with
    | Ok () -> if not json then Printf.eprintf "server shut down\n"
    | Error e ->
        Printf.eprintf "csteer: %s\n" e;
        exit 1
  end
  else if stats then begin
    match Serve.Client.stats ~socket with
    | Ok doc -> print_endline (Json.to_string doc)
    | Error e ->
        Printf.eprintf "csteer: %s\n" e;
        exit 1
  end
  else
    match workload with
    | None -> usage_error "submit needs -w WORKLOAD (or --stats / --shutdown)"
    | Some workload ->
        let request =
          Serve.Request.make ~workload ~phase ~clusters ~policy:config ~uops
            ?warmup ?seed ()
        in
        let line =
          Serve.Protocol.encode_command
            (Serve.Protocol.Simulate { id = 0; deadline_ms; request })
        in
        (match Serve.Client.call_lines ~socket [ line ] with
        | [ reply ] -> print_simulate_response ~json reply
        | _ ->
            Printf.eprintf "csteer: server closed the connection early\n";
            exit 1)

let submit_cmd =
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "workload" ] ~doc:"Workload name (e.g. 181.mcf or mcf).")
  in
  let warmup =
    Arg.(
      value
      & opt (some int) None
      & info [ "warmup" ] ~doc:"Explicit warmup budget (default: derived).")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~doc:"Explicit trace seed (default: derived).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ]
          ~doc:
            "Per-request deadline in milliseconds from arrival; an already \
             expired deadline (<= 0) is rejected with $(b,timeout) without \
             simulating."
          ~docv:"MS")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the server's counter registry as JSON and exit.")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Stop the server.")
  in
  let json = json_arg "Print the raw response line (always exit 0)." in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit one simulation request to a running csteer serve")
    Term.(
      const submit $ socket_arg $ workload $ phase_arg $ clusters_arg
      $ config_arg $ uops_arg 20_000 $ warmup $ seed $ deadline_ms $ stats
      $ shutdown $ json)

(* Extract the verbatim result document from an ok response line; the
   encoder places it last, so this preserves byte identity. *)
let result_of_line line =
  let marker = {|,"result":|} in
  let mlen = String.length marker in
  let n = String.length line in
  let rec find i =
    if i + mlen > n then None
    else if String.sub line i mlen = marker then Some i
    else find (i + 1)
  in
  Option.map
    (fun i -> String.sub line (i + mlen) (n - i - mlen - 1))
    (find 0)

let batch socket file deadline_ms results_only =
  protect @@ fun () ->
  let read_all ic =
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  let raw =
    if file = "-" then read_all stdin
    else begin
      let ic = open_in file in
      let lines = read_all ic in
      close_in ic;
      lines
    end
  in
  let raw = List.filter (fun l -> String.trim l <> "") raw in
  let commands =
    List.mapi
      (fun i line ->
        match Json.of_string line with
        | Error e ->
            Printf.eprintf "csteer: line %d: %s\n" (i + 1) e;
            exit 1
        | Ok doc -> (
            match Json.member "op" doc with
            | Some _ -> String.trim line (* full protocol envelope *)
            | None -> (
                (* bare canonical request object *)
                match Serve.Request.of_json doc with
                | Error e ->
                    Printf.eprintf "csteer: line %d: %s\n" (i + 1) e;
                    exit 1
                | Ok request ->
                    Serve.Protocol.encode_command
                      (Serve.Protocol.Simulate
                         { id = i + 1; deadline_ms; request }))))
      raw
  in
  let replies = Serve.Client.call_lines ~socket commands in
  let ok = ref 0 and cached = ref 0 and rejected = ref 0 and errors = ref 0 in
  List.iter
    (fun line ->
      (match Serve.Protocol.parse_response line with
      | Ok (Serve.Protocol.Result { cached = c; _ }) ->
          incr ok;
          if c then incr cached
      | Ok (Serve.Protocol.Rejected _) -> incr rejected
      | Ok (Serve.Protocol.Error_reply _) | Error _ -> incr errors
      | Ok _ -> ());
      if results_only then
        Option.iter print_endline (result_of_line line)
      else print_endline line)
    replies;
  Printf.eprintf "batch: %d ok (%d cached), %d rejected, %d error(s)\n" !ok
    !cached !rejected !errors;
  if List.length replies < List.length commands then begin
    Printf.eprintf "csteer: server closed the connection early\n";
    exit 1
  end

let batch_cmd =
  let file =
    let doc =
      "Newline-JSON input: one request per line, either a bare canonical \
       request object ({\"workload\":...,...}) or a full protocol envelope \
       ({\"op\":\"simulate\",...}); $(b,-) reads stdin."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ]
          ~doc:"Deadline applied to every bare request line." ~docv:"MS")
  in
  let results_only =
    Arg.(
      value & flag
      & info [ "results-only" ]
          ~doc:
            "Print only the result documents of successful responses \
             (verbatim bytes — two runs of an identical batch produce \
             identical output).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Submit a newline-JSON batch of requests to a running csteer serve")
    Term.(const batch $ socket_arg $ file $ deadline_ms $ results_only)

(* ---- metrics -------------------------------------------------------- *)

let metrics socket workload clusters config uops phase =
  protect @@ fun () ->
  match workload with
  | None -> (
      (* Live scrape of a running server. *)
      match Serve.Client.metrics ~socket with
      | Ok text -> print_string text
      | Error e ->
          Printf.eprintf "csteer: %s\n" e;
          exit 1)
  | Some workload -> (
      (* One-shot local dump: run the point under the profiler and
         expose the process registry. *)
      let points = Pinpoints.points (spec_workload workload) in
      check_phase ~points:(List.length points) phase;
      let point = List.nth points phase in
      let machine = Config.default ~clusters in
      Obs.Counters.reset Obs.Counters.default;
      let prof = Obs.Profile.create () in
      let (_ : Runner.point_result) =
        Runner.run_point ~machine ~configs:[ config ] ~uops ~profile:prof
          point
      in
      print_string (Obs.Expo.render Obs.Counters.default))

let metrics_cmd =
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "workload" ]
          ~doc:
            "Run one simulation point locally (with the self-profiler) and \
             dump its registry instead of scraping a server.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Expose counters and histograms as Prometheus text: scrape a \
          running csteer serve, or run one point locally with $(b,-w)")
    Term.(
      const metrics $ socket_arg $ workload $ clusters_arg $ config_arg
      $ uops_arg 20_000 $ phase_arg)

(* ---- runs ----------------------------------------------------------- *)

let runs_dir_arg =
  let doc = "Run-ledger directory." in
  Arg.(value & opt string "runs" & info [ "dir" ] ~doc ~docv:"DIR")

let runs_list dir json =
  protect @@ fun () ->
  let ledger = Obs.Ledger.create ~dir in
  let summaries = Obs.Ledger.list ledger in
  if json then
    print_endline
      (Json.to_string (Json.List (List.map Obs.Ledger.summary_json summaries)))
  else if summaries = [] then
    Printf.printf "no runs recorded in %s\n" dir
  else begin
    let header =
      [| "id"; "kind"; "label"; "wall_s"; "outcome"; "uops"; "mw/uop" |]
    in
    let rows =
      List.map
        (fun (s : Obs.Ledger.summary) ->
          [|
            string_of_int s.Obs.Ledger.id;
            s.Obs.Ledger.kind;
            s.Obs.Ledger.label;
            Printf.sprintf "%.3f" s.Obs.Ledger.wall_s;
            s.Obs.Ledger.outcome;
            string_of_int s.Obs.Ledger.uops;
            Printf.sprintf "%.2f" s.Obs.Ledger.minor_words_per_uop;
          |])
        summaries
    in
    print_string (Clusteer_util.Table.render ~header rows)
  end

let runs_show dir id =
  protect @@ fun () ->
  let ledger = Obs.Ledger.create ~dir in
  match Obs.Ledger.load ledger id with
  | Some doc -> print_endline (Json.to_string doc)
  | None ->
      Printf.eprintf "csteer: no run %d in %s\n" id dir;
      exit 1

let runs_gc dir keep =
  protect @@ fun () ->
  let ledger = Obs.Ledger.create ~dir in
  let removed = Obs.Ledger.prune ledger ~keep in
  Printf.printf "removed %d run(s), kept %d in %s\n" removed
    (List.length (Obs.Ledger.list ledger))
    dir

let runs_cmd =
  let list_cmd =
    let json = json_arg "Print the summaries as one JSON array." in
    Cmd.v
      (Cmd.info "list" ~doc:"List recorded runs (id, kind, wall time, GC)")
      Term.(const runs_list $ runs_dir_arg $ json)
  in
  let show_cmd =
    let id =
      Arg.(required & pos 0 (some int) None & info [] ~docv:"ID" ~doc:"Run id.")
    in
    Cmd.v
      (Cmd.info "show"
         ~doc:
           "Print one run's full ledger entry (config, counter snapshot \
            with percentiles, GC deltas) as JSON")
      Term.(const runs_show $ runs_dir_arg $ id)
  in
  let gc_cmd =
    let keep =
      checked_int ~flag:"keep" ~must:"non-negative" (fun n -> n >= 0)
        Arg.(
          value & opt int 32
          & info [ "keep" ] ~doc:"How many newest runs to keep." ~docv:"N")
    in
    Cmd.v
      (Cmd.info "gc" ~doc:"Delete all but the newest --keep runs")
      Term.(const runs_gc $ runs_dir_arg $ keep)
  in
  Cmd.group
    (Cmd.info "runs" ~doc:"Inspect and prune the on-disk run ledger")
    [ list_cmd; show_cmd; gc_cmd ]

(* ---- topo ----------------------------------------------------------- *)

let topo_list clusters json =
  protect @@ fun () ->
  let topos =
    List.map (topology_of ~clusters) Topology.builtin_names
  in
  if json then
    print_endline
      (Json.to_string (Json.List (List.map Topology.to_json topos)))
  else begin
    let header =
      [| "name"; "clusters"; "diameter"; "mean_dist"; "description" |]
    in
    let rows =
      List.map
        (fun t ->
          [|
            Topology.name t;
            string_of_int t.Topology.clusters;
            string_of_int (Topology.diameter t);
            Printf.sprintf "%.2f" (Topology.mean_distance t);
            Topology.describe t;
          |])
        topos
    in
    print_string (Clusteer_util.Table.render ~header rows)
  end

let topo_show name clusters json =
  protect @@ fun () ->
  let t = topology_of ~clusters name in
  let matrix = Topology.distance_matrix t in
  if json then
    (* The "topology" value is the round-trippable description
       (Topology.of_json accepts it); the rest is derived. *)
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("topology", Topology.to_json t);
              ("diameter", Json.Int (Topology.diameter t));
              ("mean_distance", Json.Float (Topology.mean_distance t));
              ( "distance_matrix",
                Json.List
                  (Array.to_list
                     (Array.map
                        (fun row ->
                          Json.List
                            (Array.to_list
                               (Array.map (fun d -> Json.Int d) row)))
                        matrix)) );
            ]))
  else begin
    Printf.printf "%s\n" (Topology.describe t);
    Printf.printf "diameter %d hop(s), mean cross-cluster distance %.2f\n"
      (Topology.diameter t)
      (Topology.mean_distance t);
    let n = Array.length matrix in
    let header =
      Array.init (n + 1) (fun j ->
          if j = 0 then "hops" else string_of_int (j - 1))
    in
    let rows =
      List.init n (fun i ->
          Array.init (n + 1) (fun j ->
              if j = 0 then string_of_int i
              else string_of_int matrix.(i).(j - 1)))
    in
    print_string (Clusteer_util.Table.render ~header rows)
  end

let topo_cmd =
  let json = json_arg "Print the description as one JSON document." in
  let list_cmd =
    Cmd.v
      (Cmd.info "list"
         ~doc:
           "List the built-in interconnect topologies with their derived \
            metrics")
      Term.(const topo_list $ clusters_arg $ json)
  in
  let show_cmd =
    let name_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"NAME"
            ~doc:"Topology name (see $(b,csteer topo list)).")
    in
    Cmd.v
      (Cmd.info "show"
         ~doc:
           "Describe one topology: JSON round-trip form, diameter, mean \
            distance and the full hop-count matrix")
      Term.(const topo_show $ name_arg $ clusters_arg $ json)
  in
  Cmd.group
    (Cmd.info "topo"
       ~doc:
         "Inspect the interconnect topologies available to $(b,--topology)")
    [ list_cmd; show_cmd ]

(* ---- tune ----------------------------------------------------------- *)

module Tune = Clusteer_tune

let space_conv =
  let print ppf s =
    Format.pp_print_string ppf (Tune.Param_space.name s)
  in
  Arg.conv (Tune.Param_space.find, print)

let algo_conv =
  let print ppf a =
    Format.pp_print_string ppf (Tune.Search.algo_to_string a)
  in
  Arg.conv (Tune.Search.algo_of_string, print)

let space_arg =
  let doc = "Parameter space to search: vc, op or topo." in
  Arg.(
    value
    & opt space_conv (List.hd Tune.Param_space.spaces)
    & info [ "space" ] ~doc ~docv:"SPACE")

let study_file_arg =
  let doc = "Study artifact to read." in
  Arg.(
    value
    & opt string (Filename.concat "tune" "study.json")
    & info [ "study" ] ~doc ~docv:"FILE")

let tune_run space algo seed max_evals benchmarks clusters uops domains out
    champion_file ledger_dir epsilon_pct tie_seeds json =
  protect @@ fun () ->
  let workloads =
    Option.value (subset_profiles benchmarks) ~default:Spec2000.all
  in
  let champion_file =
    Option.value champion_file
      ~default:(Filename.concat out "champion.json")
  in
  let incumbent =
    match Tune.Study.load_champion ~space ~file:champion_file with
    | Ok c -> c
    | Error msg ->
        Printf.eprintf "csteer: %s\n" msg;
        exit 1
  in
  let ledger = Option.map (fun dir -> Obs.Ledger.create ~dir) ledger_dir in
  let progress line = Printf.eprintf "  %s\n%!" line in
  let study =
    Tune.Study.run ~space ~algo ~seed ~max_evals ~workloads ~clusters ~uops
      ?domains ?ledger ?incumbent ~epsilon_pct ~tie_seeds ~progress ()
  in
  let study_file = Filename.concat out "study.json" in
  Tune.Study.save ~file:study_file study;
  if json then print_endline (Json.to_string (Tune.Study.to_json study))
  else begin
    Tune.Study.report Format.std_formatter study;
    Printf.printf "study written to %s\n" study_file
  end

let tune_report file json =
  protect @@ fun () ->
  match Tune.Study.load ~file with
  | Error msg ->
      Printf.eprintf "csteer: %s: %s\n" file msg;
      exit 1
  | Ok study ->
      if json then print_endline (Json.to_string (Tune.Study.to_json study))
      else Tune.Study.report Format.std_formatter study

let tune_promote file out =
  protect @@ fun () ->
  match Tune.Study.load ~file with
  | Error msg ->
      Printf.eprintf "csteer: %s: %s\n" file msg;
      exit 1
  | Ok study ->
      let out =
        Option.value out
          ~default:(Filename.concat (Filename.dirname file) "champion.json")
      in
      Tune.Study.save_champion ~file:out study;
      let w = Tune.Study.winner study in
      let space =
        match Tune.Param_space.find study.Tune.Study.space with
        | Ok s -> s
        | Error (`Msg m) ->
            Printf.eprintf "csteer: %s\n" m;
            exit 1
      in
      Printf.printf "%s: %s (score %.4f) -> %s\n"
        (if study.Tune.Study.ab.Tune.Study.challenger_wins then "promoted"
         else "champion retained")
        (Tune.Param_space.label space w.Tune.Study.candidate)
        w.Tune.Study.score out

let tune_cmd =
  let run_cmd =
    let algo =
      let doc = "Search driver: grid, random or hill." in
      Arg.(
        value
        & opt algo_conv Tune.Search.Random
        & info [ "search" ] ~doc ~docv:"ALGO")
    in
    let seed =
      let doc = "Search seed (random draws and hill restarts)." in
      Arg.(value & opt int 1 & info [ "seed" ] ~doc ~docv:"N")
    in
    let max_evals =
      let doc = "Evaluation budget: distinct candidates to score." in
      checked_int ~flag:"max-evals" ~must:"positive" (fun n -> n > 0)
        Arg.(value & opt int 12 & info [ "max-evals" ] ~doc ~docv:"N")
    in
    let benchmarks =
      let doc =
        "Comma-separated workload subset (default: the whole pool)."
      in
      Arg.(
        value
        & opt (some string) None
        & info [ "w"; "workloads" ] ~doc ~docv:"NAMES")
    in
    let domains = domains_arg "Worker domains for each evaluation's sweep." in
    let out =
      let doc = "Directory for the study artifact." in
      Arg.(value & opt string "tune" & info [ "out" ] ~doc ~docv:"DIR")
    in
    let champion_file =
      let doc =
        "Champion artifact defending the study (default: \
         $(i,OUT)/champion.json; absent file means the paper default \
         defends)."
      in
      Arg.(
        value
        & opt (some string) None
        & info [ "champion" ] ~doc ~docv:"FILE")
    in
    let ledger_dir =
      ledger_arg "Record one ledger entry per evaluation under DIR."
    in
    let epsilon_pct =
      let doc = "AB tie band: IPC deltas within this percentage tie." in
      Arg.(
        value & opt float 0.5 & info [ "tie-epsilon-pct" ] ~doc ~docv:"PCT")
    in
    let tie_seeds =
      let doc = "Extra salted trace streams used to re-measure ties." in
      Arg.(value & opt int 2 & info [ "tie-seeds" ] ~doc ~docv:"N")
    in
    let json = json_arg "Print the study as JSON." in
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Search the parameter space under a budget and compare the best \
            candidate AB against the reigning champion")
      Term.(
        const tune_run $ space_arg $ algo $ seed $ max_evals $ benchmarks
        $ clusters_arg $ uops_arg 20_000 $ domains $ out $ champion_file
        $ ledger_dir $ epsilon_pct $ tie_seeds $ json)
  in
  let report_cmd =
    let json = json_arg "Print the study as JSON." in
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Render a saved study: leaderboard, AB table and verdict")
      Term.(const tune_report $ study_file_arg $ json)
  in
  let promote_cmd =
    let out =
      let doc =
        "Champion artifact to write (default: champion.json next to the \
         study)."
      in
      Arg.(value & opt (some string) None & info [ "out" ] ~doc ~docv:"FILE")
    in
    Cmd.v
      (Cmd.info "promote"
         ~doc:
           "Persist the study's winner as the champion artifact future \
            studies defend")
      Term.(const tune_promote $ study_file_arg $ out)
  in
  Cmd.group
    (Cmd.info "tune"
       ~doc:
         "Closed-loop steering parameter tuning with champion/challenger \
          studies")
    [ run_cmd; report_cmd; promote_cmd ]

let main =
  let doc =
    "clusteer: software-hardware hybrid steering for clustered \
     microarchitectures (IPPS 2008 reproduction)"
  in
  Cmd.group (Cmd.info "csteer" ~doc)
    [
      list_cmd; simulate_cmd; compile_cmd; check_cmd; stats_cmd; sweep_cmd;
      vliw_cmd; Experiment.cmd; serve_cmd; submit_cmd; batch_cmd; metrics_cmd;
      runs_cmd; tune_cmd; topo_cmd;
    ]

let () = exit (Cmd.eval main)
