(* Tests for the lib/analysis static verifier: hand-built ill-formed
   programs for every IR code, mutation self-tests over a real
   workload's annotations (each corruption must be caught with its
   expected code), dynamic-replay invariants, diagnostic JSON round
   trips, and the [csteer check] driver's exit codes, drift check and
   annotation-file handling. *)

open Clusteer_isa
module Analysis = Clusteer_analysis
module Checker = Analysis.Checker
module Profile = Clusteer_workloads.Profile
module Spec2000 = Clusteer_workloads.Spec2000
module Synth = Clusteer_workloads.Synth
module Cdiag = Clusteer_compiler.Diagnostics
module Uarch = Clusteer_uarch
module Json = Clusteer_obs.Json

(* The knobs every annotation below is compiled with. *)
let params = Clusteer.Configuration.default_params

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let codes diags = List.map (fun d -> d.Diag.code) diags
let has code diags = List.exists (fun d -> d.Diag.code = code) diags

let assert_code what code diags =
  if not (has code diags) then
    Alcotest.failf "%s: expected %s among [%s]" what code
      (String.concat " " (codes diags))

let assert_clean what diags =
  match List.filter (fun d -> d.Diag.severity <> Diag.Info) diags with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "%s: unexpected %s" what (Format.asprintf "%a" Diag.pp d)

(* ---- hand-built programs (via the unchecked constructor) ----------- *)

let u ?(op = Opcode.Int_alu) ?dst ?(srcs = [||]) ?(stream = -1)
    ?(branch_ref = -1) id =
  { Uop.id; opcode = op; dst; srcs; stream; branch_ref }

let blk ?(succs = [||]) id uops = { Block.id; uops = Array.of_list uops; succs }

let prog ?(nregs = 8) ?(streams = 0) ?(branches = 0) ?(entry = 0) blocks =
  Program.of_blocks_unchecked ~nregs_per_class:nregs ~stream_count:streams
    ~branch_model_count:branches
    ~blocks:(Array.of_list blocks)
    ~entry ()

let test_ir_clean () =
  let p =
    prog ~streams:1
      [
        blk 0
          [
            u 0 ~dst:(Reg.int 0);
            u 1 ~op:Opcode.Load ~dst:(Reg.fp 1) ~srcs:[| Reg.int 0 |] ~stream:0;
            u 2 ~op:Opcode.Store ~srcs:[| Reg.int 0; Reg.fp 1 |] ~stream:0;
          ];
      ]
  in
  check_int "well-formed program is clean" 0
    (List.length (Analysis.Ir_check.check p))

let test_ir001_uop_ids () =
  let dup = prog [ blk 0 [ u 0 ~dst:(Reg.int 0); u 0 ~dst:(Reg.int 1) ] ] in
  assert_code "duplicate id" "IR001" (Analysis.Ir_check.check dup);
  let gap = prog [ blk 0 [ u 0 ~dst:(Reg.int 0); u 2 ~dst:(Reg.int 1) ] ] in
  assert_code "id gap (never placed)" "IR001" (Analysis.Ir_check.check gap)

let test_ir002_operand_shape () =
  let case what p = assert_code what "IR002" (Analysis.Ir_check.check p) in
  case "store writes a register"
    (prog ~streams:1
       [ blk 0 [ u 0 ~op:Opcode.Store ~dst:(Reg.int 0) ~stream:0 ] ]);
  case "alu without destination" (prog [ blk 0 [ u 0 ] ]);
  case "three sources"
    (prog
       [
         blk 0
           [
             u 0 ~dst:(Reg.int 0);
             u 1 ~dst:(Reg.int 1)
               ~srcs:[| Reg.int 0; Reg.int 0; Reg.int 0 |];
           ];
       ]);
  case "runtime-only Copy in static text"
    (prog [ blk 0 [ u 0 ~op:Opcode.Copy ~dst:(Reg.int 0) ] ]);
  case "load without stream"
    (prog [ blk 0 [ u 0 ~op:Opcode.Load ~dst:(Reg.int 0) ] ]);
  case "non-memory uop names a stream"
    (prog ~streams:1 [ blk 0 [ u 0 ~dst:(Reg.int 0) ~stream:0 ] ])

let test_ir003_registers () =
  let case what p = assert_code what "IR003" (Analysis.Ir_check.check p) in
  case "register outside budget"
    (prog ~nregs:8 [ blk 0 [ u 0 ~dst:(Reg.int 9) ] ]);
  case "fp result in integer register"
    (prog [ blk 0 [ u 0 ~op:Opcode.Fp_add ~dst:(Reg.int 0) ] ]);
  case "integer result in fp register"
    (prog [ blk 0 [ u 0 ~dst:(Reg.fp 0) ] ])

let test_ir004_cfg () =
  let case what p = assert_code what "IR004" (Analysis.Ir_check.check p) in
  case "entry out of range" (prog ~entry:3 [ blk 0 [ u 0 ~dst:(Reg.int 0) ] ]);
  case "successor out of range"
    (prog [ blk 0 ~succs:[| 5 |] [ u 0 ~dst:(Reg.int 0) ] ]);
  case "block id disagrees with index"
    (prog
       [ { Block.id = 7; uops = [| u 0 ~dst:(Reg.int 0) |]; succs = [||] } ])

let test_ir005_branch_placement () =
  let case what p = assert_code what "IR005" (Analysis.Ir_check.check p) in
  case "branch not the terminator"
    (prog ~branches:1
       [
         blk 0 ~succs:[| 0; 1 |]
           [ u 0 ~op:Opcode.Branch ~branch_ref:0; u 1 ~dst:(Reg.int 0) ];
         blk 1 [ u 2 ~dst:(Reg.int 1) ];
       ]);
  case "two successors without a branch"
    (prog
       [
         blk 0 ~succs:[| 0; 1 |] [ u 0 ~dst:(Reg.int 0) ];
         blk 1 [ u 1 ~dst:(Reg.int 1) ];
       ]);
  case "branch with a single successor"
    (prog ~branches:1
       [
         blk 0 ~succs:[| 1 |] [ u 0 ~op:Opcode.Branch ~branch_ref:0 ];
         blk 1 [ u 1 ~dst:(Reg.int 0) ];
       ])

let test_ir006_external_refs () =
  let case what p = assert_code what "IR006" (Analysis.Ir_check.check p) in
  case "stream beyond declared count"
    (prog ~streams:1
       [ blk 0 [ u 0 ~op:Opcode.Load ~dst:(Reg.int 0) ~stream:3 ] ]);
  case "branch model beyond declared count"
    (prog ~branches:1
       [
         blk 0 ~succs:[| 0; 1 |]
           [ u 0 ~dst:(Reg.int 0); u 1 ~op:Opcode.Branch ~branch_ref:2 ];
         blk 1 [];
       ])

let test_ir_warnings () =
  let unwritten =
    prog [ blk 0 [ u 0 ~dst:(Reg.int 0) ~srcs:[| Reg.int 5 |] ] ]
  in
  let diags = Analysis.Ir_check.check unwritten in
  assert_code "source never written" "IR007" diags;
  check_int "IR007 is a warning" 1 (Diag.count Diag.Warning diags);
  check_int "IR007 is not an error" 0 (Diag.count Diag.Error diags);
  let unreachable =
    prog [ blk 0 [ u 0 ~dst:(Reg.int 0) ]; blk 1 [ u 1 ~dst:(Reg.int 1) ] ]
  in
  assert_code "unreachable block" "IR008" (Analysis.Ir_check.check unreachable)

(* ---- mutation self-test over a real workload ----------------------- *)

let build policy_name =
  let profile = Spec2000.find "164.gzip-1" in
  let w = Synth.build profile in
  let config =
    match Clusteer.Configuration.of_name policy_name with
    | Ok c -> c
    | Error (`Msg m) -> Alcotest.fail m
  in
  let annot, _policy =
    Clusteer.Configuration.prepare config ~program:w.Synth.program
      ~likely:w.Synth.likely ~clusters:2 ()
  in
  (w, annot)

let vc_target = lazy (build "vc2")
let ob_target = lazy (build "ob")

let run ?claimed ?critical ?events (w, annot) =
  let config = Uarch.Config.default ~clusters:2 in
  Checker.run
    (Checker.target ~region_uops:params.region_uops
       ~max_chain:params.max_chain ?claimed ?critical
       ~slack_threshold:params.slack_threshold ?events ~program:w.Synth.program
       ~likely:w.Synth.likely ~annot ~config ())

let find_index what pred =
  let rec go i n = if i >= n then Alcotest.fail what else if pred i then i else go (i + 1) n in
  fun n -> go 0 n

let test_vc_mutations () =
  let w, annot = Lazy.force vc_target in
  let n = w.Synth.program.Program.uop_count in
  assert_clean "pristine vc2 annotation" (run (w, annot));
  let mutate f =
    let a = Annot.copy annot in
    f a;
    a
  in
  (* 1: a vc id outside the declared range *)
  assert_code "vc out of range" "VC002"
    (run (w, mutate (fun a -> a.Annot.vc_of.(0) <- 7)));
  (* 2: unassigning a leader leaves both a hole and an orphaned mark *)
  let leader_ix = find_index "no leader found" (fun i -> annot.Annot.leader.(i)) n in
  let d = run (w, mutate (fun a -> a.Annot.vc_of.(leader_ix) <- -1)) in
  assert_code "unassigned uop" "VC003" d;
  assert_code "orphaned leader mark" "VC004" d;
  (* 3: dropping the mark at a chain start *)
  assert_code "missing leader at chain start" "VC005"
    (run (w, mutate (fun a -> a.Annot.leader.(leader_ix) <- false)));
  (* 4: a spurious mark in the middle of a chain *)
  let follower_ix =
    find_index "no chain follower found"
      (fun i -> (not annot.Annot.leader.(i)) && annot.Annot.vc_of.(i) <> -1)
      n
  in
  assert_code "spurious mid-chain leader" "VC006"
    (run (w, mutate (fun a -> a.Annot.leader.(follower_ix) <- true)));
  (* 5: ragged arrays are reported alone — later checks need alignment *)
  let ragged =
    { annot with Annot.vc_of = Array.sub annot.Annot.vc_of 0 (n - 1) }
  in
  let d = run (w, ragged) in
  assert_code "ragged annotation" "VC001" d;
  check_bool "only the ragged-annotation codes fire" true
    (List.for_all
       (* the cost model reports the same raggedness as CM006; the topo
          pass contributes its TP006 info regardless *)
       (fun x -> x.Diag.code = "VC001" || x.Diag.code = "CM006")
       (List.filter (fun x -> x.Diag.severity <> Diag.Info) d));
  (* 6: more virtual clusters than static uops is a (strict) failure *)
  let oversized = { annot with Annot.virtual_clusters = n + 1 } in
  let d = run (w, oversized) in
  assert_code "oversized vc count" "VC010" d;
  check_bool "VC010 fails strict" true (Checker.failed ~strict:true d);
  check_bool "VC010 passes lax" false (Checker.failed ~strict:false d);
  (* 7: a truthful partition summary is accepted, a stale one is not *)
  let claimed =
    Cdiag.of_annot ~program:w.Synth.program ~likely:w.Synth.likely ~annot
      ~region_uops:params.region_uops ~max_chain:params.max_chain
  in
  assert_clean "truthful summary" (run ~claimed (w, annot));
  let tampered =
    { claimed with Cdiag.cross_vc_edges = claimed.Cdiag.cross_vc_edges + 1 }
  in
  assert_code "stale summary" "VC008" (run ~claimed:tampered (w, annot))

let test_static_mutations () =
  let w, annot = Lazy.force ob_target in
  let n = w.Synth.program.Program.uop_count in
  assert_clean "pristine ob annotation" (run (w, annot));
  let placed_ix =
    find_index "no placed uop found" (fun i -> annot.Annot.cluster_of.(i) >= 0) n
  in
  let mutate f =
    let a = Annot.copy annot in
    f a;
    a
  in
  (* 8: a physical cluster id beyond the machine *)
  assert_code "cluster out of range" "PL001"
    (run (w, mutate (fun a -> a.Annot.cluster_of.(placed_ix) <- 99)));
  (* 9: a hole in a static placement *)
  assert_code "unplaced uop" "PL002"
    (run (w, mutate (fun a -> a.Annot.cluster_of.(placed_ix) <- -1)))

let test_crit_mutations () =
  let w, _ = Lazy.force vc_target in
  let program = w.Synth.program and likely = w.Synth.likely in
  let critical =
    Clusteer_compiler.Crit_hints.compute ~program ~likely
      ~region_uops:params.region_uops ~slack_threshold:params.slack_threshold
  in
  let annot = Annot.none ~uop_count:program.Program.uop_count in
  assert_clean "truthful criticality hints" (run ~critical (w, annot));
  (* 10: a flipped criticality bit disagrees with recomputed slack *)
  let flipped = Array.copy critical in
  flipped.(0) <- not flipped.(0);
  assert_code "stale criticality hint" "PL005" (run ~critical:flipped (w, annot))

let test_dyn_invariants () =
  let annot =
    {
      Annot.scheme = "vc";
      virtual_clusters = 2;
      vc_of = [| 0; 0; 1 |];
      leader = [| true; false; true |];
      cluster_of = [| -1; -1; -1 |];
    }
  in
  let replay events = Analysis.Dyn_check.check ~annot ~clusters:2 events in
  let ev uop cluster = { Analysis.Dyn_check.uop; cluster } in
  (* leaders may remap their VC; followers must follow the table *)
  check_int "faithful replay" 0 (List.length (replay [ ev 0 1; ev 1 1; ev 2 0 ]));
  (* 11: a follower deviating from the leader's choice *)
  assert_code "rogue follower" "DYN002" (replay [ ev 0 1; ev 1 0 ]);
  (* 12: an event naming a uop the program does not have *)
  assert_code "event uop out of range" "DYN001" (replay [ ev 5 0 ])

(* ---- diagnostics plumbing ------------------------------------------ *)

let test_diag_json_roundtrip () =
  let samples =
    [
      Diag.errorf ~uop:17 ~block:3 ~region:2 ~code:"VC005"
        "missing leader mark";
      Diag.warnf ~code:"IR007" "source register R5 is never written";
      Diag.infof ~region:4 ~code:"VC009" "vc 1 splits into 3 components";
    ]
  in
  List.iter
    (fun d ->
      match Diag.of_json (Diag.to_json d) with
      | Ok d' -> check_bool "round trip preserves the finding" true (d = d')
      | Error e -> Alcotest.failf "round trip failed: %s" e)
    samples;
  check_bool "unknown severity rejected" true
    (match
       Diag.of_json
         (Json.Obj
            [
              ("severity", Json.Str "fatal");
              ("code", Json.Str "X001");
              ("message", Json.Str "m");
            ])
     with
    | Error _ -> true
    | Ok _ -> false)

let test_report_json () =
  let diags = [ Diag.errorf ~code:"IR001" "x"; Diag.infof ~code:"VC007" "y" ] in
  let doc = Checker.report_json ~label:"t" diags in
  let count name = Option.bind (Json.member name doc) Json.to_int in
  check_bool "errors counted" true (count "errors" = Some 1);
  check_bool "infos counted" true (count "infos" = Some 1);
  check_bool "warnings counted" true (count "warnings" = Some 0);
  check_bool "diagnostics listed" true
    (match Json.member "diagnostics" doc with
    | Some (Json.List [ _; _ ]) -> true
    | _ -> false)

let test_pass_selection () =
  (match Checker.select [] with
  | Ok ps -> check_int "empty selects all" 8 (List.length ps)
  | Error e -> Alcotest.fail e);
  (match Checker.select [ "ir"; "dyn" ] with
  | Ok ps -> check_int "subset resolves" 2 (List.length ps)
  | Error e -> Alcotest.fail e);
  check_bool "unknown pass rejected" true
    (match Checker.select [ "bogus" ] with Error _ -> true | Ok _ -> false)

(* ---- every built-in workload is clean (satellite regression) ------- *)

let test_all_workloads_clean () =
  List.iter
    (fun (profile : Profile.t) ->
      let w = Synth.build profile in
      List.iter
        (fun name ->
          let config =
            match Clusteer.Configuration.of_name name with
            | Ok c -> c
            | Error (`Msg m) -> Alcotest.fail m
          in
          let annot, _ =
            Clusteer.Configuration.prepare config ~program:w.Synth.program
              ~likely:w.Synth.likely ~clusters:2 ()
          in
          let claimed =
            if annot.Annot.virtual_clusters > 0 then
              Some
                (Cdiag.of_annot ~program:w.Synth.program ~likely:w.Synth.likely
                   ~annot ~region_uops:params.region_uops
                   ~max_chain:params.max_chain)
            else None
          in
          let diags = run ?claimed (w, annot) in
          if Checker.failed ~strict:true diags then
            Alcotest.failf "%s/%s not clean: [%s]" profile.Profile.name name
              (String.concat " " (codes diags)))
        [ "ob"; "rhop"; "vc2" ])
    Spec2000.all

(* ---- the csteer check driver, as a subprocess ---------------------- *)

let exe =
  let candidates =
    [ "../bin/csteer.exe"; "_build/default/bin/csteer.exe"; "bin/csteer.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/csteer.exe"

(* [stderr] folds the diagnostic stream into the captured output. *)
let run_capture ?(stderr = false) args =
  let tmp = Filename.temp_file "csteer_check" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s %s" (Filename.quote exe) args
      (Filename.quote tmp)
      (if stderr then "2>&1" else "2>/dev/null")
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

let test_cli_clean () =
  let code, out = run_capture "check -w gzip-1 -p ob,rhop,vc2" in
  check_int "clean check exits 0" 0 code;
  check_bool "reports ok" true (contains out "checked 3 target(s): ok")

let test_cli_strict_oversized () =
  let code, out = run_capture "check -w mcf -p vc200 --strict" in
  check_int "strict failure exits 1" 1 code;
  check_bool "names VC010" true (contains out "VC010");
  let code, out = run_capture "check -w mcf -p vc200" in
  check_int "lax run exits 0" 0 code;
  check_bool "warning still reported" true (contains out "VC010")

let test_cli_usage_errors () =
  let code, _ = run_capture "check -w gzip-1 --passes bogus" in
  check_int "unknown pass exits 2" 2 code;
  let code, _ = run_capture "check" in
  check_int "missing workloads exits 2" 2 code

let with_temp_file f =
  let path = Filename.temp_file "csteer_annot" ".txt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () -> f path

let test_cli_corrupt_annot () =
  let _, annot = Lazy.force ob_target in
  let bad = Annot.copy annot in
  let ix =
    find_index "no placed uop found"
      (fun i -> annot.Annot.cluster_of.(i) >= 0)
      (Array.length annot.Annot.cluster_of)
  in
  bad.Annot.cluster_of.(ix) <- 99;
  with_temp_file @@ fun path ->
  Annot_io.save ~path bad;
  let code, out =
    run_capture
      (Printf.sprintf "check -w gzip-1 -p ob --annot %s" (Filename.quote path))
  in
  check_int "corrupt annotation exits 1" 1 code;
  check_bool "names PL001" true (contains out "PL001")

let test_cli_json () =
  let code, out = run_capture "check -w gzip-1 -p vc2 --json" in
  check_int "exit 0" 0 code;
  match Json.of_string (String.trim out) with
  | Error e -> Alcotest.failf "--json output unparseable: %s" e
  | Ok doc ->
      check_bool "not failed" true
        (Json.member "failed" doc = Some (Json.Bool false));
      check_bool "one target report" true
        (match Json.member "targets" doc with
        | Some (Json.List [ _ ]) -> true
        | _ -> false)

let test_cli_dynamic () =
  let code, out = run_capture "check -w gzip-1 -p vc2 --vs-run -n 2000" in
  check_int "dynamic replay exits 0" 0 code;
  check_bool "reports ok" true (contains out ": ok")

let test_cli_garbage_annot () =
  with_temp_file @@ fun path ->
  let oc = open_out path in
  output_string oc "garbage\n";
  close_out oc;
  let code, out =
    run_capture ~stderr:true
      (Printf.sprintf "check -w gzip-1 -p ob --annot %s" (Filename.quote path))
  in
  check_int "malformed annotation exits 2" 2 code;
  check_bool "one-line diagnostic names the file" true
    (contains out (Printf.sprintf "csteer: %s: " path));
  check_bool "no uncaught exception" false (contains out "uncaught")

(* An out-of-range VC must not reach the compiler summary or the
   replay, which index by VC; it is a CM006/VC002 finding like any
   other corruption. *)
let test_cli_out_of_range_vc () =
  let _, annot = Lazy.force vc_target in
  let bad = Annot.copy annot in
  let ix =
    find_index "no annotated uop found"
      (fun i -> annot.Annot.vc_of.(i) >= 0)
      (Array.length annot.Annot.vc_of)
  in
  bad.Annot.vc_of.(ix) <- 7;
  with_temp_file @@ fun path ->
  Annot_io.save ~path bad;
  let code, out =
    run_capture ~stderr:true
      (Printf.sprintf "check -w gzip-1 -p vc2 --annot %s --vs-run -n 2000"
         (Filename.quote path))
  in
  check_int "corrupt vc annotation exits 1" 1 code;
  check_bool "names CM006" true (contains out "CM006");
  check_bool "no uncaught exception" false (contains out "uncaught")

let test_cli_drift () =
  let code, out =
    run_capture "check -w mcf -p vc2,op --vs-run -n 2000 --strict"
  in
  check_int "drift check exits 0" 0 code;
  check_bool "prints CM100" true (contains out "CM100");
  check_bool "drift summary ok" true (contains out "with drift check: ok");
  let code, _ =
    run_capture "check -w mcf -p vc2,op --topology hier2x4 --vs-run -n 2000"
  in
  check_int "hier2x4 drift check exits 0" 0 code

let test_cli_drift_json () =
  let code, out =
    run_capture "check -w mcf -p vc2,op --vs-run -n 2000 --json"
  in
  check_int "exit 0" 0 code;
  match Json.of_string (String.trim out) with
  | Error e -> Alcotest.failf "--json output unparseable: %s" e
  | Ok doc -> (
      check_bool "vs_run" true
        (Json.member "vs_run" doc = Some (Json.Bool true));
      match Json.member "targets" doc with
      | Some (Json.List targets) ->
          check_int "two targets" 2 (List.length targets);
          List.iter
            (fun t ->
              match Json.member "dispatched" t with
              | Some (Json.Int n) -> check_bool "dispatched > 0" true (n > 0)
              | _ -> Alcotest.fail "target without dispatched count")
            targets
      | _ -> Alcotest.fail "no targets list")

(* The replay must run the policy built from the --annot file, not the
   freshly compiled one: with every placed uop on cluster 0 the OB
   placement cannot copy, and the static bound says so. *)
let test_cli_annot_reaches_replay () =
  with_temp_file @@ fun path ->
  let code, _ =
    run_capture
      (Printf.sprintf "compile -w gzip-1 -p ob --emit %s" (Filename.quote path))
  in
  check_int "compile exits 0" 0 code;
  let annot = Annot_io.load ~path in
  Array.iteri
    (fun i c -> if c >= 0 then annot.Annot.cluster_of.(i) <- 0)
    annot.Annot.cluster_of;
  Annot_io.save ~path annot;
  let code, out =
    run_capture
      (Printf.sprintf
         "check -w gzip-1 -p ob --annot %s --vs-run -n 3000 --strict"
         (Filename.quote path))
  in
  check_int "one-cluster placement exits 0" 0 code;
  check_bool "no false CM101" false (contains out "CM101");
  check_bool "drift summary ok" true (contains out "with drift check: ok")

let () =
  Alcotest.run "clusteer_analysis"
    [
      ( "ir",
        [
          Alcotest.test_case "clean program" `Quick test_ir_clean;
          Alcotest.test_case "IR001 uop ids" `Quick test_ir001_uop_ids;
          Alcotest.test_case "IR002 operand shape" `Quick
            test_ir002_operand_shape;
          Alcotest.test_case "IR003 registers" `Quick test_ir003_registers;
          Alcotest.test_case "IR004 cfg" `Quick test_ir004_cfg;
          Alcotest.test_case "IR005 branch placement" `Quick
            test_ir005_branch_placement;
          Alcotest.test_case "IR006 external refs" `Quick
            test_ir006_external_refs;
          Alcotest.test_case "IR007/IR008 warnings" `Quick test_ir_warnings;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "vc invariants" `Quick test_vc_mutations;
          Alcotest.test_case "static placement" `Quick test_static_mutations;
          Alcotest.test_case "criticality hints" `Quick test_crit_mutations;
          Alcotest.test_case "dynamic replay" `Quick test_dyn_invariants;
        ] );
      ( "diag",
        [
          Alcotest.test_case "json round trip" `Quick test_diag_json_roundtrip;
          Alcotest.test_case "report json" `Quick test_report_json;
          Alcotest.test_case "pass selection" `Quick test_pass_selection;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "all built-ins clean" `Slow
            test_all_workloads_clean;
        ] );
      ( "cli",
        [
          Alcotest.test_case "clean exit" `Quick test_cli_clean;
          Alcotest.test_case "strict oversized vc" `Quick
            test_cli_strict_oversized;
          Alcotest.test_case "usage errors" `Quick test_cli_usage_errors;
          Alcotest.test_case "corrupt annotation file" `Quick
            test_cli_corrupt_annot;
          Alcotest.test_case "json report" `Quick test_cli_json;
          Alcotest.test_case "dynamic replay" `Slow test_cli_dynamic;
          Alcotest.test_case "malformed annotation file" `Quick
            test_cli_garbage_annot;
          Alcotest.test_case "out-of-range vc annotation" `Quick
            test_cli_out_of_range_vc;
          Alcotest.test_case "drift check" `Slow test_cli_drift;
          Alcotest.test_case "drift check json" `Slow test_cli_drift_json;
          Alcotest.test_case "annotation reaches replay" `Slow
            test_cli_annot_reaches_replay;
        ] );
    ]
