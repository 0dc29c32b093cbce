module Json = Clusteer_obs.Json
module Counters = Clusteer_obs.Counters
module Ledger = Clusteer_obs.Ledger
module Runner = Clusteer_harness.Runner
module Stats = Clusteer_uarch.Stats
module Config = Clusteer_uarch.Config
module Profile = Clusteer_workloads.Profile
module Configuration = Clusteer.Configuration
module Ustats = Clusteer_util.Stats
module Table = Clusteer_util.Table

type eval = {
  candidate : int array;
  score : float;
  per_benchmark : (string * float) list;
}

type verdict = Win | Loss | Tie

type row = {
  benchmark : string;
  champion_ipc : float;
  challenger_ipc : float;
  delta_pct : float;
  verdict : verdict;
  tie_broken : bool;
}

type ab = {
  epsilon_pct : float;
  tie_seeds : int;
  rows : row list;
  wins : int;
  losses : int;
  ties : int;
  challenger_wins : bool;
}

type t = {
  space : string;
  search : string;
  seed : int;
  max_evals : int;
  clusters : int;
  uops : int;
  workloads : string list;
  evals : eval list;
  champion : eval;
  challenger : eval;
  incumbent_loaded : bool;
  ab : ab;
}

(* ---- evaluation -------------------------------------------------- *)

let evaluate ~space ~workloads ~clusters ~uops ?domains ?ledger candidate =
  let machine = Param_space.machine space ~clusters candidate in
  let config, params = Param_space.materialize space candidate in
  let config_name = Configuration.name config in
  let committed_counter = Counters.counter "harness.uops_committed" in
  let before = Counters.value committed_counter in
  let started = Unix.gettimeofday () in
  let grouped, wall_s, gc =
    Runner.measured (fun () ->
        Runner.run_grouped ?domains ~params ~machine ~configs:[ config ] ~uops
          workloads)
  in
  let per_benchmark =
    List.map
      (fun ((profile : Profile.t), results) ->
        ( profile.Profile.name,
          Runner.weighted_metric results ~config:config_name ~f:Stats.ipc ))
      grouped
  in
  let score =
    Ustats.geomean (Array.of_list (List.map snd per_benchmark))
  in
  let committed = Counters.value committed_counter - before in
  Counters.incr (Counters.counter "tune.evals");
  Counters.add (Counters.counter "tune.uops_committed") committed;
  Option.iter
    (fun ledger ->
      ignore
        (Ledger.append ledger ~kind:"tune"
           ~label:
             (Printf.sprintf "%s: %s" (Param_space.name space)
                (Param_space.label space candidate))
           ~config:
             (Json.Obj
                [
                  ("space", Json.Str (Param_space.name space));
                  ("config", Json.Str config_name);
                  ("candidate", Param_space.candidate_to_json space candidate);
                  ("score", Json.Float score);
                ])
           ~started ~wall_s ~outcome:"ok" ~uops:committed ~gc
           Counters.default))
    ledger;
  { candidate; score; per_benchmark }

(* Phase-weighted IPC of one configuration on one benchmark, averaged
   over the canonical stream and [tie_seeds] salted ones — the tie-
   break measurement. *)
let replicated_ipc ~space ~clusters ~uops ?domains ~tie_seeds candidate profile
    =
  let machine = Param_space.machine space ~clusters candidate in
  let config, params = Param_space.materialize space candidate in
  let config_name = Configuration.name config in
  let ipcs =
    List.init (tie_seeds + 1) (fun salt ->
        let results =
          Runner.run_suite ?domains ~params ~trace_salt:salt ~machine
            ~configs:[ config ] ~uops [ profile ]
        in
        Runner.weighted_metric results ~config:config_name ~f:Stats.ipc)
  in
  Ustats.mean (Array.of_list ipcs)

(* ---- AB comparison ----------------------------------------------- *)

let delta_pct ~champion ~challenger =
  if champion = 0.0 then 0.0
  else (challenger -. champion) /. champion *. 100.0

let classify ~epsilon_pct d =
  if d > epsilon_pct then Win else if d < -.epsilon_pct then Loss else Tie

let compare_ab ~space ~clusters ~uops ?domains ~epsilon_pct ~tie_seeds
    ~workloads ~champion ~challenger () =
  let rows =
    List.map
      (fun (profile : Profile.t) ->
        let benchmark = profile.Profile.name in
        let champion_ipc = List.assoc benchmark champion.per_benchmark in
        let challenger_ipc = List.assoc benchmark challenger.per_benchmark in
        let d = delta_pct ~champion:champion_ipc ~challenger:challenger_ipc in
        match classify ~epsilon_pct d with
        | (Win | Loss) as verdict ->
            {
              benchmark;
              champion_ipc;
              challenger_ipc;
              delta_pct = d;
              verdict;
              tie_broken = false;
            }
        | Tie when tie_seeds = 0 ->
            {
              benchmark;
              champion_ipc;
              challenger_ipc;
              delta_pct = d;
              verdict = Tie;
              tie_broken = false;
            }
        | Tie ->
            (* Within noise on the canonical stream: replicate both
               sides over extra deterministic streams and re-classify
               on the means. *)
            Counters.incr (Counters.counter "tune.tie_breaks");
            let champion_ipc =
              replicated_ipc ~space ~clusters ~uops ?domains ~tie_seeds
                champion.candidate profile
            in
            let challenger_ipc =
              replicated_ipc ~space ~clusters ~uops ?domains ~tie_seeds
                challenger.candidate profile
            in
            let d =
              delta_pct ~champion:champion_ipc ~challenger:challenger_ipc
            in
            let verdict = classify ~epsilon_pct d in
            {
              benchmark;
              champion_ipc;
              challenger_ipc;
              delta_pct = d;
              verdict;
              tie_broken = verdict <> Tie;
            })
      workloads
  in
  let count v = List.length (List.filter (fun r -> r.verdict = v) rows) in
  let wins = count Win and losses = count Loss and ties = count Tie in
  {
    epsilon_pct;
    tie_seeds;
    rows;
    wins;
    losses;
    ties;
    challenger_wins = wins > losses;
  }

(* ---- the study --------------------------------------------------- *)

let same_candidate a b = a = b

let run ~space ~algo ~seed ~max_evals ~workloads ~clusters ~uops ?domains
    ?ledger ?incumbent ?(epsilon_pct = 0.5) ?(tie_seeds = 2)
    ?(progress = fun _ -> ()) () =
  let evaluate = evaluate ~space ~workloads ~clusters ~uops ?domains ?ledger in
  let order = ref [] in
  let n = ref 0 in
  let eval candidate =
    let e = evaluate candidate in
    order := e :: !order;
    incr n;
    progress
      (Printf.sprintf "eval %d/%d: %s -> %.4f" !n max_evals
         (Param_space.label space candidate)
         e.score);
    e.score
  in
  ignore (Search.run space ~algo ~seed ~max_evals ~eval);
  let evals = List.rev !order in
  let challenger =
    match evals with
    | [] -> invalid_arg "Study.run: no evaluations"
    | e :: rest ->
        List.fold_left (fun best e -> if e.score > best.score then e else best)
          e rest
  in
  let incumbent_candidate, incumbent_loaded =
    match incumbent with
    | Some c -> (c, true)
    | None -> (Param_space.default_candidate space, false)
  in
  let champion =
    match
      List.find_opt
        (fun e -> same_candidate e.candidate incumbent_candidate)
        evals
    with
    | Some e -> e
    | None ->
        progress
          (Printf.sprintf "scoring incumbent: %s"
             (Param_space.label space incumbent_candidate));
        evaluate incumbent_candidate
  in
  let ab =
    compare_ab ~space ~clusters ~uops ?domains ~epsilon_pct ~tie_seeds
      ~workloads ~champion ~challenger ()
  in
  {
    space = Param_space.name space;
    search = Search.algo_to_string algo;
    seed;
    max_evals;
    clusters;
    uops;
    workloads = List.map (fun (p : Profile.t) -> p.Profile.name) workloads;
    evals;
    champion;
    challenger;
    incumbent_loaded;
    ab;
  }

let winner t = if t.ab.challenger_wins then t.challenger else t.champion

(* ---- JSON -------------------------------------------------------- *)

let space_of t = Param_space.find t.space

let eval_to_json space e =
  Json.Obj
    [
      ("candidate", Param_space.candidate_to_json space e.candidate);
      ("score", Json.Float e.score);
      ( "per_benchmark",
        Json.Obj (List.map (fun (b, ipc) -> (b, Json.Float ipc)) e.per_benchmark)
      );
    ]

let verdict_to_string = function Win -> "win" | Loss -> "loss" | Tie -> "tie"

let verdict_of_string = function
  | "win" -> Ok Win
  | "loss" -> Ok Loss
  | "tie" -> Ok Tie
  | s -> Error (Printf.sprintf "unknown verdict %S" s)

let row_to_json r =
  Json.Obj
    [
      ("benchmark", Json.Str r.benchmark);
      ("champion_ipc", Json.Float r.champion_ipc);
      ("challenger_ipc", Json.Float r.challenger_ipc);
      ("delta_pct", Json.Float r.delta_pct);
      ("verdict", Json.Str (verdict_to_string r.verdict));
      ("tie_broken", Json.Bool r.tie_broken);
    ]

let ab_to_json ab =
  Json.Obj
    [
      ("epsilon_pct", Json.Float ab.epsilon_pct);
      ("tie_seeds", Json.Int ab.tie_seeds);
      ("rows", Json.List (List.map row_to_json ab.rows));
      ("wins", Json.Int ab.wins);
      ("losses", Json.Int ab.losses);
      ("ties", Json.Int ab.ties);
      ("challenger_wins", Json.Bool ab.challenger_wins);
    ]

let to_json t =
  let space =
    match space_of t with
    | Ok s -> s
    | Error (`Msg m) -> invalid_arg ("Study.to_json: " ^ m)
  in
  Json.Obj
    [
      ("kind", Json.Str "tune_study");
      ("space", Json.Str t.space);
      ("search", Json.Str t.search);
      ("seed", Json.Int t.seed);
      ("max_evals", Json.Int t.max_evals);
      ("clusters", Json.Int t.clusters);
      ("uops", Json.Int t.uops);
      ("workloads", Json.List (List.map (fun w -> Json.Str w) t.workloads));
      ("evals", Json.List (List.map (eval_to_json space) t.evals));
      ("champion", eval_to_json space t.champion);
      ("challenger", eval_to_json space t.challenger);
      ("incumbent_loaded", Json.Bool t.incumbent_loaded);
      ("ab", ab_to_json t.ab);
    ]

(* Decoding helpers: a tiny applicative over [option] keeps the field
   plumbing short. *)
let field name f json err =
  match Option.bind (Json.member name json) f with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "study: missing or invalid %S" err)

let get name f json = field name f json name

let ( let* ) = Result.bind

let eval_of_json space json =
  let* candidate =
    match Json.member "candidate" json with
    | Some c -> Param_space.candidate_of_json space c
    | None -> Error "eval: missing \"candidate\""
  in
  let* score = get "score" Json.to_float json in
  let* per_benchmark =
    match Json.member "per_benchmark" json with
    | Some (Json.Obj fields) ->
        let rec decode acc = function
          | [] -> Ok (List.rev acc)
          | (b, v) :: rest -> (
              match Json.to_float v with
              | Some ipc -> decode ((b, ipc) :: acc) rest
              | None -> Error ("eval: bad IPC for " ^ b))
        in
        decode [] fields
    | _ -> Error "eval: missing \"per_benchmark\""
  in
  Ok { candidate; score; per_benchmark }

let row_of_json json =
  let* benchmark = get "benchmark" Json.to_str json in
  let* champion_ipc = get "champion_ipc" Json.to_float json in
  let* challenger_ipc = get "challenger_ipc" Json.to_float json in
  let* delta_pct = get "delta_pct" Json.to_float json in
  let* verdict_s = get "verdict" Json.to_str json in
  let* verdict = verdict_of_string verdict_s in
  let* tie_broken = get "tie_broken" Json.to_bool json in
  Ok { benchmark; champion_ipc; challenger_ipc; delta_pct; verdict; tie_broken }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let ab_of_json json =
  let* epsilon_pct = get "epsilon_pct" Json.to_float json in
  let* tie_seeds = get "tie_seeds" Json.to_int json in
  let* rows =
    match Option.bind (Json.member "rows" json) Json.to_list with
    | Some items -> map_result row_of_json items
    | None -> Error "ab: missing \"rows\""
  in
  let* wins = get "wins" Json.to_int json in
  let* losses = get "losses" Json.to_int json in
  let* ties = get "ties" Json.to_int json in
  let* challenger_wins = get "challenger_wins" Json.to_bool json in
  Ok { epsilon_pct; tie_seeds; rows; wins; losses; ties; challenger_wins }

let of_json json =
  let* space_name = get "space" Json.to_str json in
  let* space =
    match Param_space.find space_name with
    | Ok s -> Ok s
    | Error (`Msg m) -> Error m
  in
  let* search = get "search" Json.to_str json in
  let* seed = get "seed" Json.to_int json in
  let* max_evals = get "max_evals" Json.to_int json in
  let* clusters = get "clusters" Json.to_int json in
  let* uops = get "uops" Json.to_int json in
  let* workloads =
    match Option.bind (Json.member "workloads" json) Json.to_list with
    | Some items ->
        map_result
          (fun w ->
            match Json.to_str w with
            | Some s -> Ok s
            | None -> Error "study: bad workload name")
          items
    | None -> Error "study: missing \"workloads\""
  in
  let* evals =
    match Option.bind (Json.member "evals" json) Json.to_list with
    | Some items -> map_result (eval_of_json space) items
    | None -> Error "study: missing \"evals\""
  in
  let* champion =
    match Json.member "champion" json with
    | Some j -> eval_of_json space j
    | None -> Error "study: missing \"champion\""
  in
  let* challenger =
    match Json.member "challenger" json with
    | Some j -> eval_of_json space j
    | None -> Error "study: missing \"challenger\""
  in
  let* incumbent_loaded = get "incumbent_loaded" Json.to_bool json in
  let* ab =
    match Json.member "ab" json with
    | Some j -> ab_of_json j
    | None -> Error "study: missing \"ab\""
  in
  Ok
    {
      space = space_name;
      search;
      seed;
      max_evals;
      clusters;
      uops;
      workloads;
      evals;
      champion;
      challenger;
      incumbent_loaded;
      ab;
    }

(* ---- artifacts --------------------------------------------------- *)

let write_atomic ~file json =
  Clusteer_util.Fs.mkdir_p (Filename.dirname file);
  Clusteer_util.Fs.write_atomic ~path:file (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

let save ~file t = write_atomic ~file (to_json t)

let load ~file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error m -> Error m
  | contents ->
      let* json = Json.of_string contents in
      of_json json

let champion_json t =
  let space =
    match space_of t with
    | Ok s -> s
    | Error (`Msg m) -> invalid_arg ("Study.champion_json: " ^ m)
  in
  let w = winner t in
  let config, _ = Param_space.materialize space w.candidate in
  Json.Obj
    [
      ("kind", Json.Str "tune_champion");
      ("space", Json.Str t.space);
      ("config", Json.Str (Configuration.name config));
      ("candidate", Param_space.candidate_to_json space w.candidate);
      ("score", Json.Float w.score);
      ("label", Json.Str (Param_space.label space w.candidate));
    ]

let save_champion ~file t = write_atomic ~file (champion_json t)

let load_champion ~space ~file =
  if not (Sys.file_exists file) then Ok None
  else
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error m -> Error m
    | contents -> (
        let* json = Json.of_string contents in
        match Json.member "space" json with
        | Some (Json.Str s) when s <> Param_space.name space ->
            Error
              (Printf.sprintf
                 "champion %s was promoted from space %S, not %S" file s
                 (Param_space.name space))
        | _ -> (
            match Json.member "candidate" json with
            | None -> Error (file ^ ": missing \"candidate\"")
            | Some c ->
                let* candidate = Param_space.candidate_of_json space c in
                Ok (Some candidate)))

(* ---- report ------------------------------------------------------ *)

let report ppf t =
  let space =
    match space_of t with
    | Ok s -> s
    | Error (`Msg m) -> invalid_arg ("Study.report: " ^ m)
  in
  Format.fprintf ppf
    "tune study: space=%s search=%s seed=%d max-evals=%d clusters=%d uops=%d@."
    t.space t.search t.seed t.max_evals t.clusters t.uops;
  Format.fprintf ppf "workloads: %s@." (String.concat ", " t.workloads);
  Format.fprintf ppf "evaluations: %d@.@." (List.length t.evals);
  let ranked =
    List.stable_sort (fun a b -> compare b.score a.score) t.evals
  in
  let top = List.filteri (fun i _ -> i < 10) ranked in
  Format.fprintf ppf "leaderboard (top %d of %d, geomean weighted IPC):@."
    (List.length top) (List.length t.evals);
  Format.pp_print_string ppf
    (Table.render
       ~header:[| "#"; "score"; "candidate" |]
       (List.mapi
          (fun i e ->
            [|
              string_of_int (i + 1);
              Table.fmt_float ~decimals:4 e.score;
              Param_space.label space e.candidate;
            |])
          top));
  Format.fprintf ppf "@.champion%s: %s (score %s)@."
    (if t.incumbent_loaded then " (incumbent)" else " (paper default)")
    (Param_space.label space t.champion.candidate)
    (Table.fmt_float ~decimals:4 t.champion.score);
  Format.fprintf ppf "challenger: %s (score %s)@.@."
    (Param_space.label space t.challenger.candidate)
    (Table.fmt_float ~decimals:4 t.challenger.score);
  Format.fprintf ppf "AB comparison (epsilon %.2f%%, %d tie seeds):@."
    t.ab.epsilon_pct t.ab.tie_seeds;
  Format.pp_print_string ppf
    (Table.render
       ~header:
         [| "benchmark"; "champion"; "challenger"; "delta"; "verdict" |]
       (List.map
          (fun r ->
            [|
              r.benchmark;
              Table.fmt_float ~decimals:4 r.champion_ipc;
              Table.fmt_float ~decimals:4 r.challenger_ipc;
              Table.fmt_percent ~decimals:2 r.delta_pct;
              (verdict_to_string r.verdict
              ^ if r.tie_broken then " (tie-broken)" else "");
            |])
          t.ab.rows));
  Format.fprintf ppf "@.wins %d / losses %d / ties %d -> %s@." t.ab.wins
    t.ab.losses t.ab.ties
    (if t.ab.challenger_wins then "challenger wins: promote"
     else "champion retained");
  let w = winner t in
  Format.fprintf ppf "winner: %s (score %s)@."
    (Param_space.label space w.candidate)
    (Table.fmt_float ~decimals:4 w.score)
