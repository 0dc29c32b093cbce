(* End-to-end tests of the csteer command-line interface, run as a
   subprocess against the built executable. *)

let exe =
  (* dune runtest runs in _build/default/test; dune exec from the
     project root. *)
  let candidates =
    [ "../bin/csteer.exe"; "_build/default/bin/csteer.exe"; "bin/csteer.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/csteer.exe"

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_capture args =
  let tmp = Filename.temp_file "csteer_out" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>/dev/null" (Filename.quote exe) args
      (Filename.quote tmp)
  in
  let code = Sys.command cmd in
  let ic = open_in tmp in
  let len = in_channel_length ic in
  let out = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  (code, out)

(* Like [run_capture] but folds stderr into the captured output, for
   asserting on diagnostic lines. *)
let run_capture_all args =
  let tmp = Filename.temp_file "csteer_out" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args
      (Filename.quote tmp)
  in
  let code = Sys.command cmd in
  let ic = open_in tmp in
  let len = in_channel_length ic in
  let out = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  (code, out)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let index_of haystack needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length haystack then raise Not_found
    else if String.sub haystack i n = needle then i
    else go (i + 1)
  in
  go 0

(* The -p documentation lists exactly names [Configuration.of_name]
   accepts, and each prints back to itself (vcN read as vc2). The
   deleted extension baselines are refused by [of_name] and by -p. *)
let test_policy_names () =
  let code, help = run_capture "simulate --help=plain" in
  check_int "help exit 0" 0 code;
  let lead = "Steering configuration:" in
  let start = index_of help lead + String.length lead in
  let names =
    String.sub help start (String.index_from help start '.' - start)
    |> String.split_on_char ',' |> List.map String.trim
  in
  check_int "documented names" 8 (List.length names);
  List.iter
    (fun doc_name ->
      let name = if doc_name = "vcN" then "vc2" else doc_name in
      match Clusteer.Configuration.of_name name with
      | Ok c ->
          Alcotest.(check string) (name ^ " round trip") name
            (Clusteer.Configuration.name c)
      | Error (`Msg m) -> Alcotest.failf "%s: %s" name m)
    names;
  List.iter
    (fun name ->
      check_bool (name ^ ": of_name refuses") true
        (Result.is_error (Clusteer.Configuration.of_name name));
      let code, out =
        run_capture_all ("simulate -w gzip-1 -n 500 -p " ^ name)
      in
      check_int (name ^ ": -p refuses") 124 code;
      check_bool (name ^ ": names the configuration") true
        (contains out (Printf.sprintf "unknown configuration %S" name)))
    [ "thermal"; "mod3"; "modN" ]

let test_list () =
  let code, out = run_capture "list" in
  check_int "exit 0" 0 code;
  check_bool "lists mcf" true (contains out "181.mcf");
  check_bool "lists apsi" true (contains out "301.apsi")

let test_simulate () =
  let code, out = run_capture "simulate -w gzip-1 -p vc2 -n 3000" in
  check_int "exit 0" 0 code;
  check_bool "prints ipc" true (contains out "ipc");
  check_bool "prints energy" true (contains out "energy")

let test_simulate_json_roundtrip () =
  let code, out =
    run_capture "simulate -w gzip-1 -p vc2 -n 3000 --stats-interval 500 --json"
  in
  check_int "exit 0" 0 code;
  (* The whole stdout is one machine-readable JSON document. *)
  match Clusteer_obs.Json.of_string (String.trim out) with
  | Error e -> Alcotest.failf "--json output unparseable: %s" e
  | Ok doc ->
      let module J = Clusteer_obs.Json in
      check_bool "workload" true
        (J.member "workload" doc = Some (J.Str "164.gzip-1"));
      let committed =
        Option.bind (J.member "stats" doc) (J.member "committed")
      in
      check_bool "committed count" true
        (match Option.bind committed J.to_int with
        | Some n -> n >= 3000
        | None -> false);
      check_bool "counters present" true
        (Option.bind (J.member "counters" doc) (J.member "counters") <> None);
      check_bool "interval series present" true
        (match J.member "intervals" doc with
        | Some (J.List (_ :: _)) -> true
        | _ -> false)

let test_simulate_trace_out () =
  let trace = Filename.temp_file "csteer_trace" ".json" in
  let code, _ =
    run_capture
      (Printf.sprintf
         "simulate -w gzip-1 -n 3000 --trace-out %s --trace-format json \
          --stats-interval 500"
         (Filename.quote trace))
  in
  check_int "exit 0" 0 code;
  let ic = open_in trace in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  Sys.remove trace;
  match Clusteer_obs.Json.of_string content with
  | Error e -> Alcotest.failf "trace file unparseable: %s" e
  | Ok doc ->
      check_bool "has trace events" true
        (match Clusteer_obs.Json.member "traceEvents" doc with
        | Some (Clusteer_obs.Json.List (_ :: _)) -> true
        | _ -> false)

(* Every subcommand that resolves a workload name locally diagnoses an
   unknown one in the same single line, with exit 2. sweep and metrics
   need a SPEC point, so a kernel name is unknown to them. *)
let test_unknown_workload () =
  let unknown name =
    Printf.sprintf "csteer: unknown workload %S (try csteer list)" name
  in
  List.iter
    (fun (args, expected) ->
      let code, out = run_capture_all args in
      check_int (args ^ ": exit 2") 2 code;
      Alcotest.(check string) (args ^ ": diagnostic") (expected ^ "\n") out)
    [
      ("simulate -w not-a-benchmark", unknown "not-a-benchmark");
      ("compile -w bogus", unknown "bogus");
      ("check -w gzip-1,bogus", unknown "bogus");
      ("stats -w bogus", unknown "bogus");
      ("sweep -w bogus", unknown "bogus");
      ("sweep -w daxpy", unknown "daxpy");
      ("vliw -w bogus", unknown "bogus");
      ("metrics -w bogus", unknown "bogus");
      ("metrics -w adv-storm", unknown "adv-storm");
      ("tune run -w gzip", unknown "gzip");
    ]

(* Machine sizes outside 1..16 clusters, from --clusters or from a
   fixed-size fabric name, are diagnosed in one line with exit 2
   before any machine is built. *)
let test_machine_size_bounds () =
  List.iter
    (fun (args, expected) ->
      let code, out = run_capture_all ("simulate -w gzip-1 -n 500 " ^ args) in
      check_int (args ^ ": exit 2") 2 code;
      Alcotest.(check string) (args ^ ": diagnostic") (expected ^ "\n") out)
    [
      ("-c 0", "csteer: --clusters must be between 1 and 16 (got 0)");
      ("-c 100", "csteer: --clusters must be between 1 and 16 (got 100)");
      ( "--topology mesh99999x99999",
        "csteer: topology mesh99999x99999: 99999x99999 clusters (at most 16)" );
      ( "--topology hier4x8",
        "csteer: topology hier4x8: 4x8 clusters (at most 16)" );
    ];
  let code, _ = run_capture "simulate -w gzip-1 -n 500 -c 16" in
  check_int "16 clusters run" 0 code

(* A non-positive --uops is rejected in one line with exit 2 by every
   subcommand that takes it, and an out-of-range --phase names the valid
   range; so are a negative --stats-interval or --keep, a non-positive
   --max-evals, an unknown fabric name, a study name the experiment
   table lacks, a sweep flag given to a study that does not read it and
   a submit with nothing to send. *)
let test_uops_and_phase_bounds () =
  List.iter
    (fun (args, expected) ->
      let code, out = run_capture_all args in
      check_int (args ^ ": exit 2") 2 code;
      Alcotest.(check string) (args ^ ": diagnostic") (expected ^ "\n") out)
    [
      ("simulate -w gzip-1 -n 0", "csteer: --uops must be positive (got 0)");
      ("simulate -w gzip-1 --uops=-5", "csteer: --uops must be positive (got -5)");
      ("metrics -w gzip-1 -n 0", "csteer: --uops must be positive (got 0)");
      ("experiment fig5 -n 0", "csteer: --uops must be positive (got 0)");
      ( "check -w gzip-1 --vs-run -n 0",
        "csteer: --uops must be positive (got 0)" );
      ("stats -w gzip-1 -n 0", "csteer: --uops must be positive (got 0)");
      ("sweep -w gzip-1 -n 0", "csteer: --uops must be positive (got 0)");
      ("tune run -n 0", "csteer: --uops must be positive (got 0)");
      ( "simulate -w gzip-1 -n 500 --phase=-1",
        "csteer: --phase must be between 0 and 1 (got -1)" );
      ( "simulate -w gzip-1 -n 500 --phase 2",
        "csteer: --phase must be between 0 and 1 (got 2)" );
      ( "simulate -w adv-storm -n 500 --phase 1",
        "csteer: --phase must be between 0 and 0 (got 1)" );
      ( "metrics -w gzip-1 -n 500 --phase=-1",
        "csteer: --phase must be between 0 and 1 (got -1)" );
      ( "simulate -w gzip-1 -n 500 --stats-interval=-5",
        "csteer: --stats-interval must be non-negative (got -5)" );
      ("tune run --max-evals 0", "csteer: --max-evals must be positive (got 0)");
      ( "tune run --max-evals=-3",
        "csteer: --max-evals must be positive (got -3)" );
      ("experiment throughput -n 0", "csteer: --uops must be positive (got 0)");
      ("runs gc --keep=-1", "csteer: --keep must be non-negative (got -1)");
      ( "topo show bogus",
        "csteer: unknown topology \"bogus\" (expected p2p, bus, ring, \
         meshCxR or hierGxS)" );
      ( "simulate -w gzip-1 -n 500 --topology bogus",
        "csteer: unknown topology \"bogus\" (expected p2p, bus, ring, \
         meshCxR or hierGxS)" );
      ( "experiment fig5 --topology ring",
        "csteer: --topology is its own sweep; drop the \"fig5\" argument" );
      ( "experiment vc-count --json",
        "csteer: vc-count has no JSON document (--json takes one of topo, \
         predict, throughput, tune)" );
      ( "experiment vc-count --benchmarks mcf --csv out",
        "csteer: vc-count does not read --benchmarks (read by fig5, fig6, \
         fig56, fig7, all, --topology)" );
      ( "experiment tables --csv out",
        "csteer: tables does not read --csv (read by fig5, fig6, fig56, fig7, \
         all)" );
      ( "experiment throughput -n 500 --domains 2",
        "csteer: throughput does not read --domains (read by fig5, fig6, \
         fig56, fig7, all, --topology)" );
      ( "experiment --topology ring --csv out",
        "csteer: --topology does not read --csv (read by fig5, fig6, fig56, \
         fig7, all)" );
      ("submit", "csteer: submit needs -w WORKLOAD (or --stats / --shutdown)");
    ]

(* A worker-domain count below 1 is rejected, not clamped to 1, by
   every subcommand that takes --domains; so are serve's admission and
   cache bounds. *)
let test_domains_and_serve_bounds () =
  List.iter
    (fun (args, expected) ->
      let code, out = run_capture_all args in
      check_int (args ^ ": exit 2") 2 code;
      Alcotest.(check string) (args ^ ": diagnostic") (expected ^ "\n") out)
    [
      ( "experiment fig5 -n 500 --domains 0",
        "csteer: --domains must be at least 1 (got 0)" );
      ( "experiment fig5 -n 500 --domains=-3",
        "csteer: --domains must be at least 1 (got -3)" );
      ("tune run -n 500 --domains=0", "csteer: --domains must be at least 1 (got 0)");
      ("serve --domains 0", "csteer: --domains must be at least 1 (got 0)");
      ( "serve --queue-depth 0",
        "csteer: --queue-depth must be positive (got 0)" );
      ( "serve --cache-mb=-1",
        "csteer: --cache-mb must be non-negative (got -1)" );
    ]

let test_compile_emit_annotation () =
  let annot = Filename.temp_file "csteer" ".annot" in
  let code, out =
    run_capture (Printf.sprintf "compile -w gzip-1 -p vc2 --emit %s" annot)
  in
  check_int "exit 0" 0 code;
  check_bool "reports chains" true (contains out "chains");
  (* The emitted file parses back through the library. *)
  let a = Clusteer_isa.Annot_io.load ~path:annot in
  Sys.remove annot;
  check_int "two vcs" 2 a.Clusteer_isa.Annot.virtual_clusters;
  (* compile needs only a program, so kernels resolve too. *)
  let code, out = run_capture "compile -w daxpy -p vc2" in
  check_int "kernel compiles" 0 code;
  check_bool "names the kernel" true (contains out "daxpy")

let test_stats () =
  let code, out = run_capture "stats -w daxpy -n 5000" in
  check_int "exit 0" 0 code;
  check_bool "mentions mem" true (contains out "mem")

let test_vliw () =
  let code, out = run_capture "vliw -w dot" in
  check_int "exit 0" 0 code;
  check_bool "prints II" true (contains out "II=")

let test_sweep_csv () =
  let csv = Filename.temp_file "csteer_sweep" ".csv" in
  let code, _ = run_capture (Printf.sprintf "sweep -w gzip-1 -n 2000 -o %s" csv) in
  check_int "exit 0" 0 code;
  let ic = open_in csv in
  let header = input_line ic in
  let rows = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr rows
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove csv;
  Alcotest.(check string) "header"
    "clusters,config,cycles,ipc,copies,alloc_stalls" header;
  (* 3 cluster counts x 7 configurations *)
  check_int "rows" 21 !rows

let test_experiment_tables () =
  let code, out = run_capture "experiment tables" in
  check_int "exit 0" 0 code;
  check_bool "table 1" true (contains out "hybrid virtual clustering");
  check_bool "table 2" true (contains out "trace cache");
  check_bool "table 3" true (contains out "Occupancy-aware")

let test_experiment_sec21 () =
  let code, out = run_capture "experiment sec21" in
  check_int "exit 0" 0 code;
  check_bool "paper delta" true (contains out "(paper: 2)")

let temp_dirname prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let test_ledger_end_to_end () =
  let dir = temp_dirname "csteer_ledger" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* --ledger implies profiling: the run is recorded with phase-timing
     percentiles and GC accounting. *)
  let code, _ =
    run_capture
      (Printf.sprintf "simulate -w gzip-1 -p vc2 -n 2000 --ledger %s"
         (Filename.quote dir))
  in
  check_int "simulate exit 0" 0 code;
  check_bool "index written" true
    (Sys.file_exists (Filename.concat dir "index.jsonl"));
  let code, out =
    run_capture (Printf.sprintf "runs list --dir %s --json" (Filename.quote dir))
  in
  check_int "runs list exit 0" 0 code;
  (match Clusteer_obs.Json.of_string (String.trim out) with
  | Error e -> Alcotest.failf "runs list --json unparseable: %s" e
  | Ok (Clusteer_obs.Json.List [ entry ]) ->
      let module J = Clusteer_obs.Json in
      (match J.member "kind" entry with
      | Some (J.Str "simulate") -> ()
      | _ -> Alcotest.fail "kind must be simulate");
      check_bool "words/uop recorded" true
        (J.member "minor_words_per_uop" entry <> None)
  | Ok _ -> Alcotest.fail "expected exactly one ledger entry");
  let code, out =
    run_capture (Printf.sprintf "runs show --dir %s 1" (Filename.quote dir))
  in
  check_int "runs show exit 0" 0 code;
  check_bool "full entry has gc accounting" true
    (contains out "engine_minor_words_per_uop");
  check_bool "full entry has phase percentiles" true
    (contains out "profile.engine.commit.ns");
  check_bool "full entry has p99" true (contains out "p99");
  (* gc keeps the newest and reports what it removed. *)
  let code, _ =
    run_capture
      (Printf.sprintf "simulate -w gzip-1 -p op -n 2000 --ledger %s"
         (Filename.quote dir))
  in
  check_int "second run exit 0" 0 code;
  let code, out =
    run_capture (Printf.sprintf "runs gc --dir %s --keep 1" (Filename.quote dir))
  in
  check_int "runs gc exit 0" 0 code;
  check_bool "reports removal" true (contains out "removed 1");
  let code, out =
    run_capture (Printf.sprintf "runs list --dir %s --json" (Filename.quote dir))
  in
  check_int "list after gc exit 0" 0 code;
  check_bool "newest survives" true (contains out "\"id\":2");
  check_bool "oldest gone" true (not (contains out "\"id\":1"))

let test_metrics_local_dump () =
  let code, out = run_capture "metrics -w gzip-1 -n 2000" in
  check_int "exit 0" 0 code;
  check_bool "typed counter" true (contains out "# TYPE");
  check_bool "engine histograms exposed" true
    (contains out "engine_copyq_depth");
  check_bool "profiler phases exposed" true
    (contains out "profile_engine_commit_ns_count 1")

let test_unwritable_paths_diagnose () =
  (* A file where a directory is needed: mkdir fails with ENOTDIR /
     EEXIST and the CLI must answer with one diagnostic line and exit
     1, not a backtrace. *)
  let file = Filename.temp_file "csteer_notadir" "" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  let bad = Filename.concat file "sub" in
  let code, out =
    run_capture_all
      (Printf.sprintf "simulate -w gzip-1 -n 500 --ledger %s"
         (Filename.quote bad))
  in
  check_int "ledger path rejected" 1 code;
  check_bool "one-line diagnostic, not a backtrace" true
    (contains out "csteer:" && not (contains out "Raised at"));
  let code, out =
    run_capture_all
      (Printf.sprintf "simulate -w gzip-1 -n 500 --trace-out %s"
         (Filename.quote bad))
  in
  check_int "trace path rejected" 1 code;
  check_bool "one-line diagnostic, not a backtrace" true
    (contains out "csteer:" && not (contains out "Raised at"));
  let code, _ =
    run_capture_all (Printf.sprintf "runs list --dir %s" (Filename.quote bad))
  in
  check_int "runs dir rejected" 1 code;
  (* The file itself where the figure directory should be. *)
  let code, out =
    run_capture_all
      (Printf.sprintf "experiment fig5 -n 300 --benchmarks mcf --csv %s"
         (Filename.quote file))
  in
  check_int "figure dir rejected" 1 code;
  check_bool "one-line diagnostic, not a backtrace" true
    (contains out (Printf.sprintf "csteer: %s: not a directory" file)
    && not (contains out "Raised at"))

(* An unknown study name is a usage error whose one line lists the
   whole table, `all` included. *)
let test_unknown_experiment () =
  let code, out = run_capture_all "experiment not-a-figure" in
  check_int "exit 2" 2 code;
  Alcotest.(check string) "one-line diagnostic"
    "csteer: unknown experiment \"not-a-figure\" (studies: tables, sec21, \
     fig5, fig6, fig56, fig7, vc-threshold, seq-par, vc-count, \
     region-scope, steer-depth, baselines, topo, vliw, energy, \
     link-latency, scaling, prefetch, kernels, predict, obs, throughput, \
     tune, all)\n"
    out

(* An ablation study runs from the study table: its heading, then one
   row per virtual-cluster count. *)
let test_experiment_vc_count () =
  let code, out = run_capture "experiment vc-count -n 300" in
  check_int "exit 0" 0 code;
  match String.split_on_char '\n' (String.trim out) with
  | title :: _rule :: header :: rows ->
      Alcotest.(check string) "heading"
        "Ablation: virtual-cluster count on the 2-cluster machine" title;
      check_bool "header" true (contains header "avg copies");
      Alcotest.(check (list string)) "one row per VC count"
        [ "1"; "2"; "3"; "4" ]
        (List.map (fun r -> List.hd (String.split_on_char ' ' r)) rows)
  | _ -> Alcotest.failf "unexpected output:\n%s" out

(* --json prints the study's document alone on stdout: the topology
   study covers each of its four fabrics. *)
let test_experiment_topo_json () =
  let code, out = run_capture "experiment topo -n 300 --json" in
  check_int "exit 0" 0 code;
  let module J = Clusteer_obs.Json in
  match J.of_string (String.trim out) with
  | Error e -> Alcotest.failf "--json output unparseable: %s" e
  | Ok doc ->
      let entries =
        match J.member "topology_study" doc with
        | Some (J.List l) -> l
        | _ -> Alcotest.fail "no topology_study list"
      in
      List.iter
        (fun fabric ->
          check_bool (fabric ^ " entry") true
            (List.exists
               (fun e -> J.member "topology" e = Some (J.Str fabric))
               entries))
        [ "p2p"; "ring"; "mesh4x2"; "hier2x4" ]

(* --benchmarks names go through the same resolver as -w. *)
let test_unknown_benchmark () =
  let code, out = run_capture_all "experiment fig5 --benchmarks mcf,bogus" in
  check_int "unknown benchmark exits 2" 2 code;
  Alcotest.(check string) "one-line diagnostic"
    "csteer: unknown workload \"bogus\" (try csteer list)\n" out

let () =
  Alcotest.run "clusteer_cli"
    [
      ( "csteer",
        [
          Alcotest.test_case "list" `Quick test_list;
          Alcotest.test_case "policy names" `Quick test_policy_names;
          Alcotest.test_case "simulate" `Slow test_simulate;
          Alcotest.test_case "simulate --json" `Slow test_simulate_json_roundtrip;
          Alcotest.test_case "simulate --trace-out" `Slow test_simulate_trace_out;
          Alcotest.test_case "unknown workload" `Quick test_unknown_workload;
          Alcotest.test_case "machine size bounds" `Quick
            test_machine_size_bounds;
          Alcotest.test_case "domains and serve bounds" `Quick
            test_domains_and_serve_bounds;
          Alcotest.test_case "uops and phase bounds" `Quick
            test_uops_and_phase_bounds;
          Alcotest.test_case "compile --emit" `Quick test_compile_emit_annotation;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "vliw" `Quick test_vliw;
          Alcotest.test_case "sweep csv" `Slow test_sweep_csv;
          Alcotest.test_case "experiment tables" `Quick test_experiment_tables;
          Alcotest.test_case "experiment sec21" `Quick test_experiment_sec21;
          Alcotest.test_case "unknown experiment" `Quick test_unknown_experiment;
          Alcotest.test_case "experiment vc-count" `Quick
            test_experiment_vc_count;
          Alcotest.test_case "experiment topo --json" `Quick
            test_experiment_topo_json;
          Alcotest.test_case "unknown benchmark" `Quick test_unknown_benchmark;
          Alcotest.test_case "ledger end to end" `Slow test_ledger_end_to_end;
          Alcotest.test_case "metrics local dump" `Slow test_metrics_local_dump;
          Alcotest.test_case "unwritable paths" `Quick
            test_unwritable_paths_diagnose;
        ] );
    ]
