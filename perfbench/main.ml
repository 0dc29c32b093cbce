(* clusteer benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--ledger DIR] [--digests FILE] [--uops N] [--spans FILE]
     main.exe gen-digests [--digests FILE] [--uops N]
     main.exe serve-child SOCKET CACHE_DIR PROFILE STAT_FILE

   Workloads: fig5-sweep, fabric-storm, serve-mixed (see RATIONALE.md).
   With --trace 0 the last stdout line is one JSON object carrying every
   end-to-end metric; with --trace 1, every per-layer metric, measured
   by a separate traced pass whose spans go to --spans. *)

module Json = Clusteer_obs.Json
module Counters = Clusteer_obs.Counters
module Ledger = Clusteer_obs.Ledger

let workloads = [ "fig5-sweep"; "fabric-storm"; "serve-mixed" ]

(* Micro-ops per simulation: per point x configuration on the sweeps,
   per request on serve-mixed. The digests pin the sweep sizes. *)
let default_uops = function
  | "fig5-sweep" -> 6_000
  | "fabric-storm" -> 40_000
  | _ -> 8_000

let end_to_end =
  [
    "uops_per_s"; "uops_per_s_2d"; "setup_s"; "minor_words_per_uop";
    "peak_heap_mb"; "ok_frac"; "req_per_s"; "latency_p50_ms"; "latency_p90_ms";
    "replay_latency_p50_ms";
  ]

let out_dir = Filename.concat "perfbench" "out"
let usage () = prerr_endline "usage: see the header of perfbench/main.ml"; exit 2

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec remove_tree p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let parse args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go args;
  tbl

let int_opt tbl k =
  Option.map
    (fun v -> match int_of_string_opt v with Some i -> i | None -> usage ())
    (Hashtbl.find_opt tbl k)

let salt_of_seed seed = ((seed mod Oracle.salts) + Oracle.salts) mod Oracle.salts

(* ---- result line -------------------------------------------------- *)

let print_result ~tally metrics =
  let bad = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
  List.iter
    (fun (n, _, _) -> Tally.add tally ~ops:1 ~bad:1 ("non-finite metric " ^ n))
    bad;
  List.iter
    (fun (n, u, v) -> Printf.printf "%-34s %18.6f %s\n" n v u)
    metrics;
  List.iter (Printf.printf "problem: %s\n") (List.rev tally.Tally.problems);
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ", "
      (List.map
         (fun (n, u, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.Tally.failed = 0 && tally.Tally.attempted > 0)
    (max 1 tally.Tally.attempted) tally.Tally.failed body

let record_ledger ~dir ~workload ~seed ~seconds ~trace ~started ~gc0 ~tally
    metrics =
  let ledger = Ledger.create ~dir in
  let wall_s = Unix.gettimeofday () -. started in
  let committed =
    Counters.value (Counters.counter "harness.uops_committed")
  in
  let summary =
    Ledger.append ledger ~kind:"bench" ~label:workload
      ~config:
        (Json.Obj
           [
             ("workload", Json.Str workload);
             ("seed", Json.Int seed);
             ("seconds", Json.Float seconds);
             ("trace", Json.Bool trace);
             ("attempted", Json.Int tally.Tally.attempted);
             ("failed", Json.Int tally.Tally.failed);
             ( "metrics",
               Json.Obj
                 (List.map
                    (fun (n, u, v) ->
                      (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
                    metrics) );
           ])
      ~started ~wall_s
      ~outcome:(if tally.Tally.failed = 0 then "ok" else "fail")
      ~uops:committed
      ~gc:(Ledger.gc_sub (Ledger.gc_now ()) gc0)
      Counters.default
  in
  Printf.eprintf "ledger: run %d recorded in %s\n%!" summary.Ledger.id dir

(* ---- workloads ----------------------------------------------------- *)

let serve_traced tally =
  let t = Traced.create () in
  let untraced = ref 0.0 and traced = ref 0.0 and next = ref 0 in
  let on_sample (r : Serve_mix.req) stats dt =
    let req = r.Serve_mix.request in
    let point = r.Serve_mix.point in
    let item =
      {
        Traced.id = !next;
        build = (fun () -> Clusteer_workloads.Synth.build point.Clusteer_workloads.Pinpoints.profile);
        seed = Clusteer_harness.Runner.salted_trace_seed ~salt:r.Serve_mix.salt point;
        uops = req.Clusteer_serve.Request.uops;
      }
    in
    incr next;
    let runs, dt_tr =
      Meter.timed (fun () ->
          Traced.run_group t
            ~machine:(Clusteer_uarch.Config.default ~clusters:req.Clusteer_serve.Request.clusters)
            ~configs:[ req.Clusteer_serve.Request.policy ]
            [ item ])
    in
    let same =
      match runs with
      | [ [ (_, s) ] ] -> Clusteer_uarch.Stats.equal s stats
      | _ -> false
    in
    Tally.add tally ~ops:1 ~bad:(if same then 0 else 1) "traced = untraced";
    untraced := !untraced +. dt;
    traced := !traced +. dt_tr
  in
  (t, untraced, traced, on_sample)

let run_serve ~host ~seed ~uops ~seconds ~trace ~spans ~tally ~log =
  let dir = Filename.concat out_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  remove_tree dir;
  mkdir_p dir;
  let tracer = if trace then Some (serve_traced tally) else None in
  let result =
    Fun.protect
      ~finally:(fun () -> remove_tree dir)
      (fun () ->
        Serve_mix.run ~dir
          ~host:(if trace then None else Some host)
          ~seed ~uops ~seconds ~setup_reps:10 ~min_passes:3
          ~tally
          ~traced:(Option.map (fun (_, _, _, f) -> f) tracer)
          ~log)
  in
  let metrics, st, stats = result in
  match tracer with
  | None -> metrics
  | Some (t, untraced, traced, _) ->
      Traced.finish t;
      Option.iter (Spans.write t.Traced.spans) spans;
      Traced.layer_metrics t
      @ Traced.stage_metrics
          ~ns:(Serve_mix.hist_sum stats)
          ~uops:(float_of_int st.Serve_mix.fresh_sim_uops)
      @ Traced.harness_metrics t ~sweep_s:st.Serve_mix.direct_s
          ~minor_gcs:st.Serve_mix.minor_gcs ~major_gcs:st.Serve_mix.major_gcs
      @ Serve_mix.serve_layer ~peak_mb:st.Serve_mix.server_peak_mb stats
      @ [
          ("obs.trace_overhead_frac", "frac", Meter.ratio !traced !untraced -. 1.0);
          ("model.fig5_err_pp", "pp", 0.0);
        ]

let run_sweep ~host ~workload ~seed ~uops ~seconds ~trace ~spans ~digests
    ~tally ~log =
  let salt = salt_of_seed seed in
  let expected = Oracle.load ~path:digests ~workload ~uops ~salt in
  let s = Sweeps.make ~workload ~uops ~salt in
  if trace then
    Sweeps.run_traced s ~tally ~expected ~spans_path:spans
    @ Serve_mix.serve_layer ~peak_mb:0.0 None
  else
    Sweeps.run_timed s ~host ~tally ~expected ~seconds ~setup_reps:25 ~min_passes:3
      ~log

(* Put the metrics in one fixed order per mode, and check that the set
   is exactly the documented one. *)
let ordered ~trace metrics =
  let names = List.map (fun (n, _, _) -> n) metrics in
  let uniq = List.sort_uniq compare names in
  if List.length uniq <> List.length names then failwith "duplicate metric name";
  if not trace then begin
    let missing = List.filter (fun n -> not (List.mem n names)) end_to_end in
    if missing <> [] then failwith ("missing metric " ^ String.concat "," missing);
    List.map (fun n -> List.find (fun (m, _, _) -> m = n) metrics) end_to_end
  end
  else metrics

let bench args =
  let tbl = parse args in
  let workload =
    match Hashtbl.find_opt tbl "workload" with
    | Some w when List.mem w workloads -> w
    | _ -> usage ()
  in
  let seed = Option.value ~default:0 (int_opt tbl "seed") in
  let seconds = float_of_int (Option.value ~default:10 (int_opt tbl "seconds")) in
  let trace =
    match int_opt tbl "trace" with Some 1 -> true | Some 0 | None -> false | _ -> usage ()
  in
  let uops = Option.value ~default:(default_uops workload) (int_opt tbl "uops") in
  let digests = Option.value ~default:Oracle.default_path (Hashtbl.find_opt tbl "digests") in
  mkdir_p out_dir;
  let spans =
    if trace then
      Some
        (Option.value
           ~default:(Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" workload seed))
           (Hashtbl.find_opt tbl "spans"))
    else None
  in
  let started = Unix.gettimeofday () in
  let gc0 = Ledger.gc_now () in
  let log line = Printf.printf "%s\n%!" line in
  let tally = Tally.create () in
  let metrics =
    Host_speed.with_reference (fun host ->
        let metrics =
          if workload = "serve-mixed" then
            run_serve ~host ~seed ~uops ~seconds ~trace ~spans ~tally ~log
          else
            run_sweep ~host ~workload ~seed ~uops ~seconds ~trace ~spans ~digests
              ~tally ~log
        in
        (* The traced run reports host times unscaled, with the
           reference kernel's time after it to compare runs by. *)
        if trace then begin
          for _ = 1 to 3 do Host_speed.sample host done;
          metrics @ [ ("host.calib_ms", "ms", 1000.0 *. Host_speed.own_s host) ]
        end
        else metrics)
  in
  let metrics =
    if trace then metrics
    else metrics @ [ ("ok_frac", "frac", Tally.ok_frac tally) ]
  in
  let metrics = ordered ~trace metrics in
  Option.iter (fun dir ->
      record_ledger ~dir ~workload ~seed ~seconds ~trace ~started ~gc0 ~tally metrics)
    (Hashtbl.find_opt tbl "ledger");
  print_result ~tally metrics

let gen_digests args =
  let tbl = parse args in
  let path = Option.value ~default:Oracle.default_path (Hashtbl.find_opt tbl "digests") in
  let entries =
    List.map
      (fun workload ->
        let uops = Option.value ~default:(default_uops workload) (int_opt tbl "uops") in
        let rows =
          List.init Oracle.salts (fun salt ->
              let s = Sweeps.make ~workload ~uops ~salt in
              s.Sweeps.setup ();
              let stats, _, _ = s.Sweeps.pass_1d ~between:ignore () in
              stats)
        in
        (workload, uops, rows))
      [ "fig5-sweep"; "fabric-storm" ]
  in
  Oracle.write ~path entries;
  Printf.printf "wrote %s\n" path

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "serve-child"; socket; cache_dir; profile; stat_file ] ->
      Serve_mix.child ~socket ~cache_dir ~profile:(profile = "1") ~stat_file
  | "gen-digests" :: rest -> gen_digests rest
  | args -> (
      try bench args
      with Failure m | Sys_error m ->
        Printf.eprintf "perfbench: %s\n%!" m;
        exit 1)
