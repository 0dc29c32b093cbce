(* The auto-tuner: parameter-space encoding, search drivers,
   champion/challenger studies, and the csteer tune CLI. *)

module Param_space = Clusteer_tune.Param_space
module Search = Clusteer_tune.Search
module Study = Clusteer_tune.Study
module Json = Clusteer_obs.Json
module Spec2000 = Clusteer_workloads.Spec2000

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let vc_space =
  match Param_space.find "vc" with Ok s -> s | Error (`Msg m) -> failwith m

let op_space =
  match Param_space.find "op" with Ok s -> s | Error (`Msg m) -> failwith m

(* ---- param space ------------------------------------------------- *)

let test_space_shape () =
  check_int "vc dims" 5 (Array.length (Param_space.dims vc_space));
  check_int "op dims" 2 (Array.length (Param_space.dims op_space));
  let card =
    Array.fold_left ( * ) 1 (Param_space.dims vc_space)
  in
  check_int "vc cardinality" card (Param_space.cardinality vc_space);
  Alcotest.check_raises "unknown space is an error" (Failure "unknown")
    (fun () ->
      match Param_space.find "nope" with
      | Error (`Msg _) -> raise (Failure "unknown")
      | Ok _ -> ())

let test_default_is_paper () =
  (* The default candidate must materialize to exactly the paper's
     constants — the whole study format relies on the incumbent-free
     champion being the reproduction baseline. Every space, topo
     included, reads its menu defaults from [default_params]. *)
  let default space =
    Param_space.materialize space (Param_space.default_candidate space)
  in
  check_string "default config" "vc2"
    (Clusteer.Configuration.name (fst (default vc_space)));
  check_string "op default config" "op"
    (Clusteer.Configuration.name (fst (default op_space)));
  List.iter
    (fun space ->
      check_bool (Param_space.name space ^ " default params") true
        (snd (default space) = Clusteer.Configuration.default_params))
    Param_space.spaces

let test_candidate_roundtrip () =
  (* encode -> decode is the identity for every candidate of the op
     space and a lexicographic sample of the vc space. *)
  let roundtrip space candidate =
    let json = Param_space.candidate_to_json space candidate in
    match Param_space.candidate_of_json space json with
    | Ok decoded -> check_bool "roundtrip" true (decoded = candidate)
    | Error m -> Alcotest.failf "decode failed: %s" m
  in
  for i = 0 to Param_space.cardinality op_space - 1 do
    roundtrip op_space (Param_space.nth op_space i)
  done;
  let card = Param_space.cardinality vc_space in
  let step = max 1 (card / 50) in
  let i = ref 0 in
  while !i < card do
    roundtrip vc_space (Param_space.nth vc_space !i);
    i := !i + step
  done;
  (* Round-trip survives the string encoder too (floats included). *)
  let c = Param_space.default_candidate vc_space in
  let s = Json.to_string (Param_space.candidate_to_json vc_space c) in
  (match Json.of_string s with
  | Ok json -> (
      match Param_space.candidate_of_json vc_space json with
      | Ok decoded -> check_bool "string roundtrip" true (decoded = c)
      | Error m -> Alcotest.fail m)
  | Error m -> Alcotest.fail m);
  (* Decoding rejects out-of-range and wrong-arity candidates. *)
  let bad =
    Json.Obj [ ("indices", Json.List [ Json.Int 0; Json.Int 99 ]) ]
  in
  check_bool "wrong arity rejected" true
    (Result.is_error (Param_space.candidate_of_json vc_space bad));
  let bad2 =
    Json.Obj
      [
        ( "indices",
          Json.List
            [ Json.Int 0; Json.Int 99; Json.Int 0; Json.Int 0; Json.Int 0 ] );
      ]
  in
  check_bool "out of range rejected" true
    (Result.is_error (Param_space.candidate_of_json vc_space bad2))

let test_nth_golden () =
  (* Lexicographic enumeration, first parameter most significant:
     candidate 0 is all-zeros, candidate 1 bumps the last parameter. *)
  check_bool "nth 0" true
    (Param_space.nth op_space 0 = [| 0; 0 |]);
  check_bool "nth 1" true (Param_space.nth op_space 1 = [| 0; 1 |]);
  let dims = Param_space.dims op_space in
  check_bool "nth last" true
    (Param_space.nth op_space (Param_space.cardinality op_space - 1)
    = [| dims.(0) - 1; dims.(1) - 1 |]);
  (* nth is a bijection onto the space. *)
  let seen = Hashtbl.create 64 in
  for i = 0 to Param_space.cardinality op_space - 1 do
    Hashtbl.replace seen (Param_space.nth op_space i) ()
  done;
  check_int "nth covers the space" (Param_space.cardinality op_space)
    (Hashtbl.length seen)

(* ---- search drivers ---------------------------------------------- *)

(* A synthetic, deterministic objective: no simulation, so driver
   behaviour is tested in isolation. *)
let toy_score candidate =
  Array.to_list candidate
  |> List.mapi (fun k idx -> float_of_int ((k + 1) * idx))
  |> List.fold_left ( +. ) 0.0

let test_grid_truncates_and_dedups () =
  let seen = ref [] in
  let out =
    Search.run op_space ~algo:Search.Grid ~seed:1 ~max_evals:7
      ~eval:(fun c ->
        seen := c :: !seen;
        toy_score c)
  in
  check_int "budget respected" 7 (List.length out);
  check_int "eval called once per candidate" 7 (List.length !seen);
  let distinct = List.sort_uniq compare (List.map fst out) in
  check_int "no duplicates" 7 (List.length distinct);
  (* Grid order is Param_space.nth order. *)
  List.iteri
    (fun i (c, _) ->
      check_bool "lexicographic" true (c = Param_space.nth op_space i))
    out;
  (* Budget above cardinality clamps to the space. *)
  let out =
    Search.run op_space ~algo:Search.Grid ~seed:1 ~max_evals:10_000
      ~eval:toy_score
  in
  check_int "full grid" (Param_space.cardinality op_space) (List.length out)

let test_random_deterministic () =
  let run seed =
    Search.run vc_space ~algo:Search.Random ~seed ~max_evals:20
      ~eval:toy_score
  in
  check_bool "same seed, same sequence" true (run 42 = run 42);
  check_bool "different seed, different sequence" true (run 42 <> run 43);
  let out = run 7 in
  check_int "budget" 20 (List.length out);
  check_int "distinct" 20
    (List.length (List.sort_uniq compare (List.map fst out)));
  check_bool "default candidate evaluated first" true
    (fst (List.hd out) = Param_space.default_candidate vc_space)

let test_random_exhausts_tiny_space () =
  (* Budget >= cardinality must still visit every candidate exactly
     once (rejection sampling falls back to a scan). *)
  let out =
    Search.run op_space ~algo:Search.Random ~seed:5 ~max_evals:1_000
      ~eval:toy_score
  in
  check_int "exhausts the space" (Param_space.cardinality op_space)
    (List.length out);
  check_int "each candidate once" (Param_space.cardinality op_space)
    (List.length (List.sort_uniq compare (List.map fst out)))

let test_hill_climbs () =
  (* toy_score is separable and monotone in every index, so ample-
     budget coordinate descent must reach the all-max corner. *)
  let out =
    Search.run op_space ~algo:Search.Hill ~seed:3 ~max_evals:1_000
      ~eval:toy_score
  in
  let best =
    List.fold_left
      (fun (bc, bs) (c, s) -> if s > bs then (c, s) else (bc, bs))
      (List.hd out) (List.tl out)
  in
  let dims = Param_space.dims op_space in
  check_bool "found the optimum" true
    (fst best = [| dims.(0) - 1; dims.(1) - 1 |]);
  check_bool "hill is deterministic" true
    (Search.run op_space ~algo:Search.Hill ~seed:3 ~max_evals:40
       ~eval:toy_score
    = Search.run op_space ~algo:Search.Hill ~seed:3 ~max_evals:40
        ~eval:toy_score)

(* ---- studies ----------------------------------------------------- *)

let tiny_workloads = [ Spec2000.find "gzip-1"; Spec2000.find "vpr-1" ]

let run_tiny ?incumbent ?(algo = Search.Random) ?(seed = 11) () =
  Study.run ~space:vc_space ~algo ~seed ~max_evals:4
    ~workloads:tiny_workloads ~clusters:2 ~uops:2_000 ?incumbent
    ~epsilon_pct:0.5 ~tie_seeds:1 ()

let test_study_deterministic () =
  (* Same seed and budget => same champion and bit-identical study
     JSON — the acceptance criterion of the tuner. *)
  let a = run_tiny () and b = run_tiny () in
  check_string "bit-identical JSON"
    (Json.to_string (Study.to_json a))
    (Json.to_string (Study.to_json b));
  check_bool "same challenger" true
    (a.Study.challenger.Study.candidate = b.Study.challenger.Study.candidate)

let test_study_shape () =
  let s = run_tiny () in
  check_int "evals" 4 (List.length s.Study.evals);
  check_int "ab rows = workloads" 2 (List.length s.Study.ab.Study.rows);
  check_int "verdicts partition the rows" 2
    (s.Study.ab.Study.wins + s.Study.ab.Study.losses + s.Study.ab.Study.ties);
  check_bool "challenger is the best eval" true
    (List.for_all
       (fun (e : Study.eval) ->
         e.Study.score <= s.Study.challenger.Study.score)
       s.Study.evals);
  check_bool "incumbent-free champion is the paper default" true
    (s.Study.champion.Study.candidate
    = Param_space.default_candidate vc_space);
  check_bool "no incumbent loaded" false s.Study.incumbent_loaded;
  (* The study JSON is a pure function of the run: no timestamps. *)
  let text = Json.to_string (Study.to_json s) in
  check_bool "no wall-clock fields" false
    (let contains n h =
       let nl = String.length n in
       let rec go i =
         i + nl <= String.length h
         && (String.sub h i nl = n || go (i + 1))
       in
       go 0
     in
     contains "started" text || contains "wall_s" text)

let test_study_roundtrip () =
  let s = run_tiny () in
  let json = Study.to_json s in
  match Study.of_json json with
  | Error m -> Alcotest.fail m
  | Ok s' ->
      check_string "of_json . to_json = id"
        (Json.to_string json)
        (Json.to_string (Study.to_json s'))

let test_study_incumbent_and_champion_artifact () =
  let s = run_tiny () in
  let dir = Filename.temp_file "tune_test" "" in
  Sys.remove dir;
  let champion_file = Filename.concat dir "champion.json" in
  Study.save_champion ~file:champion_file s;
  (match Study.load_champion ~space:vc_space ~file:champion_file with
  | Ok (Some c) ->
      check_bool "artifact stores the winner" true
        (c = (Study.winner s).Study.candidate)
  | Ok None -> Alcotest.fail "champion artifact missing"
  | Error m -> Alcotest.fail m);
  (* A missing file is a clean "no incumbent". *)
  (match
     Study.load_champion ~space:vc_space
       ~file:(Filename.concat dir "nope.json")
   with
  | Ok None -> ()
  | _ -> Alcotest.fail "missing artifact should be Ok None");
  (* A champion from another space is rejected, not misapplied. *)
  (match Study.load_champion ~space:op_space ~file:champion_file with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cross-space champion must be rejected");
  (* Defending the incumbent: its eval is the study's champion. *)
  let incumbent = (Study.winner s).Study.candidate in
  let s2 = run_tiny ~incumbent () in
  check_bool "incumbent defends" true
    (s2.Study.champion.Study.candidate = incumbent);
  check_bool "incumbent flag" true s2.Study.incumbent_loaded;
  (* Study save/load round-trips through disk. *)
  let study_file = Filename.concat dir "study.json" in
  Study.save ~file:study_file s2;
  (match Study.load ~file:study_file with
  | Ok loaded ->
      check_string "disk roundtrip"
        (Json.to_string (Study.to_json s2))
        (Json.to_string (Study.to_json loaded))
  | Error m -> Alcotest.fail m);
  Sys.remove champion_file;
  Sys.remove study_file;
  Unix.rmdir dir

(* ---- CLI e2e ----------------------------------------------------- *)

let exe =
  let candidates =
    [ "../bin/csteer.exe"; "_build/default/bin/csteer.exe"; "bin/csteer.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/csteer.exe"

let run_capture args =
  let tmp = Filename.temp_file "csteer_tune" ".txt" in
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

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let test_cli_tune_cycle () =
  let dir = Filename.temp_file "tune_cli" "" in
  Sys.remove dir;
  let base =
    Printf.sprintf
      "tune run --space vc --search grid --max-evals 2 -w gzip-1 -n 1500 \
       --out %s"
      (Filename.quote dir)
  in
  let code, out = run_capture base in
  check_int "tune run exits 0" 0 code;
  check_bool "prints a verdict" true
    (contains out "challenger" || contains out "champion");
  check_bool "study written" true
    (Sys.file_exists (Filename.concat dir "study.json"));
  (* report --json parses and carries the study shape. *)
  let code, out =
    run_capture
      (Printf.sprintf "tune report --study %s --json"
         (Filename.quote (Filename.concat dir "study.json")))
  in
  check_int "report exits 0" 0 code;
  (match Json.of_string (String.trim out) with
  | Ok json ->
      check_bool "is a tune study" true
        (Json.member "kind" json = Some (Json.Str "tune_study"))
  | Error m -> Alcotest.failf "report --json is not JSON: %s" m);
  (* promote writes the champion artifact. *)
  let code, _ =
    run_capture
      (Printf.sprintf "tune promote --study %s"
         (Filename.quote (Filename.concat dir "study.json")))
  in
  check_int "promote exits 0" 0 code;
  check_bool "champion written" true
    (Sys.file_exists (Filename.concat dir "champion.json"));
  (* Same seed + budget => bit-identical report JSON (CLI level). *)
  let code, out1 =
    run_capture
      (Printf.sprintf
         "tune run --space vc --search random --seed 9 --max-evals 2 -w \
          gzip-1 -n 1500 --out %s --json"
         (Filename.quote dir))
  in
  check_int "json run exits 0" 0 code;
  let _, out2 =
    run_capture
      (Printf.sprintf
         "tune run --space vc --search random --seed 9 --max-evals 2 -w \
          gzip-1 -n 1500 --out %s --json"
         (Filename.quote dir))
  in
  check_string "bit-identical CLI JSON" out1 out2;
  (* Usage errors exit 2-ish (cmdliner: 124 for parse errors); runtime
     failures exit 1. *)
  let code, _ = run_capture "tune run --search bogus" in
  check_bool "usage error is non-zero" true (code <> 0);
  let code, _ = run_capture "tune report --study /nonexistent/study.json" in
  check_int "missing study exits 1" 1 code;
  List.iter
    (fun f ->
      let f = Filename.concat dir f in
      if Sys.file_exists f then Sys.remove f)
    [ "study.json"; "champion.json" ];
  Unix.rmdir dir

let () =
  Alcotest.run "tune"
    [
      ( "param_space",
        [
          Alcotest.test_case "space shape" `Quick test_space_shape;
          Alcotest.test_case "default is the paper" `Quick
            test_default_is_paper;
          Alcotest.test_case "candidate roundtrip" `Quick
            test_candidate_roundtrip;
          Alcotest.test_case "nth golden" `Quick test_nth_golden;
        ] );
      ( "search",
        [
          Alcotest.test_case "grid truncates and dedups" `Quick
            test_grid_truncates_and_dedups;
          Alcotest.test_case "random is seed-deterministic" `Quick
            test_random_deterministic;
          Alcotest.test_case "random exhausts tiny spaces" `Quick
            test_random_exhausts_tiny_space;
          Alcotest.test_case "hill climbs to the optimum" `Quick
            test_hill_climbs;
        ] );
      ( "study",
        [
          Alcotest.test_case "deterministic" `Quick test_study_deterministic;
          Alcotest.test_case "shape" `Quick test_study_shape;
          Alcotest.test_case "json roundtrip" `Quick test_study_roundtrip;
          Alcotest.test_case "incumbent and champion artifact" `Quick
            test_study_incumbent_and_champion_artifact;
        ] );
      ( "cli",
        [ Alcotest.test_case "tune cycle e2e" `Quick test_cli_tune_cycle ] );
    ]
